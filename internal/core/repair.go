package core

import (
	"fmt"
	"hash/fnv"
	"time"

	"medea/internal/cluster"
	"medea/internal/journal"
	"medea/internal/lra"
)

// Failure recovery (the live counterpart of §7.3): when a node goes down,
// its containers are evicted by the cluster layer; Medea detects which
// deployed LRAs were degraded and queues ONLY the lost container groups
// as a repair of each. A due repair is one more entry of the next
// cycle's batch (RunCycle): partitioned, placed, validated, made durable
// and committed through the task-based scheduler with the new LRAs
// (§5.4's single-writer discipline), under one fault rule. It differs in
// data, not path: it is placed as the lost groups with the LRA's tags and
// constraints (repairApp), committed under the lost container IDs
// (remapRepair), and has its own retry budget and backoff gate (DESIGN §7).

// knownNode reports whether the ID names a node of the cluster; state
// transitions on unknown IDs are no-ops (failure reports come from
// outside the scheduler and may be stale or malformed).
func (m *Medea) knownNode(node cluster.NodeID) bool {
	return node >= 0 && int(node) < m.Cluster.NumNodes()
}

// FailNode takes a node down at runtime and routes the evicted containers
// into the repair queue. It returns the evicted set (nil if the node was
// already down or unknown).
func (m *Medea) FailNode(node cluster.NodeID, now time.Time) []cluster.Eviction {
	if !m.knownNode(node) || m.Cluster.Node(node).State() == cluster.NodeDown {
		return nil
	}
	evs := m.Cluster.FailNode(node)
	m.Recovery.NodeFailures++
	m.handleEvictions(evs, now)
	return evs
}

// RecoverNode brings a node back. Pending repair backoffs are cleared:
// capacity just returned, so every degraded LRA becomes repair-eligible
// at the next cycle. It reports whether the node state changed.
func (m *Medea) RecoverNode(node cluster.NodeID, now time.Time) bool {
	if !m.Cluster.RecoverNode(node) {
		return false
	}
	m.Recovery.NodeRecoveries++
	m.logRecord(&journal.Record{Kind: journal.KindNodeRecover, At: now, Node: node})
	m.clearBackoffs(now)
	return true
}

// DrainNode starts planned maintenance on a node: no new allocations land
// on it, resident LRA containers are released and re-queued for placement
// elsewhere through the repair pipeline, and resident task containers
// keep running to completion (they are short-lived by design). It returns
// the relocated LRA containers (nil if the node was not up or unknown).
func (m *Medea) DrainNode(node cluster.NodeID, now time.Time) []cluster.Eviction {
	if !m.knownNode(node) || m.Cluster.Node(node).State() != cluster.NodeUp {
		return nil
	}
	resident := m.Cluster.DrainNode(node)
	m.Recovery.NodeDrains++
	var lraEvs []cluster.Eviction
	for _, ev := range resident {
		if _, owned := m.owner[ev.Container]; owned {
			lraEvs = append(lraEvs, ev)
		}
	}
	if len(lraEvs) > 0 {
		// Write-ahead: the releases must not run ahead of a staged record
		// about the containers they release.
		m.barrier()
	}
	for _, ev := range lraEvs {
		if err := m.Cluster.Release(ev.Container); err != nil {
			panic(err) // unreachable: releasing a just-enumerated resident container
		}
	}
	m.handleEvictions(lraEvs, now)
	return lraEvs
}

// handleEvictions ingests container evictions produced by a node failure
// or drain: lost LRA containers are queued for repair, and the task
// scheduler refunds the queues its own task containers were charged to.
func (m *Medea) handleEvictions(evs []cluster.Eviction, now time.Time) {
	if len(evs) > 0 {
		// The eviction record precedes the scheduler-state mutations: a
		// crash right here leaves the journal behind cluster truth, which
		// the recovery zombie sweep repairs (the containers are already
		// gone from the cluster either way).
		m.logRecord(&journal.Record{Kind: journal.KindEvict, At: now, Evictions: evs})
	}
	for _, ev := range evs {
		if m.lose(ev.Container, now) {
			m.Recovery.Evictions++
		} else {
			m.Recovery.TaskEvictions++
		}
	}
	m.Tasks.HandleEvictions(evs)
}

// PendingRepairs returns the number of containers awaiting repair.
func (m *Medea) PendingRepairs() int {
	n := 0
	for _, pa := range m.repairs {
		n += len(pa.repair.lost)
	}
	return n
}

// repairBackoffFor returns the backoff gate delay after the attempts-th
// consecutive failed repair of appID: exponential from Interval,
// capped at repairBackoffCap times it, plus a decorrelation jitter in
// [0, backoff/8) drawn from an FNV-1a hash of (appID, attempts). The
// jitter spreads the retries of LRAs degraded by the same node failure
// without any mutable RNG state: the schedule is a pure function of its
// inputs, so a journal replay recomputes exactly the gates the live run
// chose.
func (c Config) repairBackoffFor(appID string, attempts int) time.Duration {
	shift := attempts - 1
	if shift < 0 {
		shift = 0
	}
	if shift > 16 {
		shift = 16 // cap the shift; the max clamp below dominates anyway
	}
	backoff := c.Interval << uint(shift)
	if max := repairBackoffCap * c.Interval; backoff > max {
		backoff = max
	}
	if window := backoff / 8; window > 0 {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s|%d", appID, attempts)
		backoff += time.Duration(h.Sum64() % uint64(window))
	}
	return backoff
}

// repairsDue reports whether any repair is past its backoff gate.
func (m *Medea) repairsDue(now time.Time) bool {
	for _, pa := range m.repairs {
		if !pa.repair.notBefore.After(now) {
			return true
		}
	}
	return false
}

// repairApp builds the application a repair is placed as: the lost
// containers' groups, in the LRA's group order, each with the tags the
// lost containers carried (the LRA's appID tag among them, so constraint
// evaluation sees the replacements as it saw the lost ones), and the
// LRA's constraints. Its ID is the LRA's with a "~repair" suffix, so the
// container IDs an algorithm derives from it cannot collide with the
// LRA's survivors; remapRepair drops them, and the tag EffectiveTags
// adds for that ID.
func repairApp(pa *pendingApp) *lra.Application {
	byGroup := lostByGroup(pa.repair.lost)
	var groups []lra.ContainerGroup
	for _, g := range pa.app.Groups {
		pieces := byGroup[g.Name]
		if len(pieces) == 0 {
			continue
		}
		groups = append(groups, lra.ContainerGroup{
			Name:   g.Name,
			Count:  len(pieces),
			Demand: g.Demand,
			Tags:   pieces[0].Tags,
		})
	}
	return &lra.Application{ID: pa.app.ID + "~repair", Groups: groups, Constraints: pa.app.Constraints}
}

// lostByGroup indexes lost containers by group, in loss order.
func lostByGroup(lost []journal.DeployedContainer) map[string][]journal.DeployedContainer {
	byGroup := make(map[string][]journal.DeployedContainer)
	for _, c := range lost {
		byGroup[c.Group] = append(byGroup[c.Group], c)
	}
	return byGroup
}

// remapRepair maps a repair placement's synthetic assignments back onto
// the lost containers, group by group: the original IDs, demands and
// tags, on the proposed nodes. It reports false for a placement that does
// not cover the lost containers exactly (an unknown group, too many or
// too few assignments), which is vetoed like a wrong-shaped one.
func remapRepair(pa *pendingApp, p *lra.Placement) ([]lra.Assignment, bool) {
	if len(p.Assignments) != len(pa.repair.lost) {
		return nil, false // repairs are all-or-nothing (Equation 4)
	}
	byGroup := lostByGroup(pa.repair.lost)
	remapped := make([]lra.Assignment, len(p.Assignments))
	for i, a := range p.Assignments {
		pieces := byGroup[a.Group]
		if len(pieces) == 0 {
			return nil, false
		}
		remapped[i] = lra.Assignment{
			Container: pieces[0].ID, Group: a.Group, Node: a.Node, Demand: pieces[0].Demand, Tags: pieces[0].Tags,
		}
		byGroup[a.Group] = pieces[1:]
	}
	return remapped, true
}
