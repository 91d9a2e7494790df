package core

import (
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"medea/internal/audit"
	"medea/internal/cluster"
	"medea/internal/journal"
	"medea/internal/lra"
)

// Failure recovery (the live counterpart of §7.3): when a node goes down,
// its containers are evicted by the cluster layer; Medea detects which
// deployed LRAs were degraded and re-queues ONLY the lost container
// groups as repair requests. Repairs run at the start of every scheduling
// cycle, with a per-LRA retry budget and exponential backoff between
// attempts. They are placed by the algorithm the circuit breaker chose
// for the cycle and answer to the same fault rule as the batch (judge,
// veto): a crashing algorithm costs a repair no attempt, and the breaker,
// not the repair loop, steps down to the §5.3 heuristics when the
// configured algorithm keeps failing. Repair placements respect the
// LRA's original constraints and are committed through the task-based
// scheduler like any other placement (§5.4's single-writer discipline),
// so repairs can lose races with task allocations and retry just like
// initial placements.

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
// or drain: lost LRA containers are queued for repair, displaced task
// containers are reported to the task scheduler for queue accounting.
func (m *Medea) handleEvictions(evs []cluster.Eviction, now time.Time) {
	if len(evs) > 0 {
		// The eviction record precedes the scheduler-state mutations: a
		// crash right here leaves the journal behind cluster truth, which
		// the recovery zombie sweep repairs (the containers are already
		// gone from the cluster either way).
		m.logRecord(&journal.Record{Kind: journal.KindEvict, At: now, Evictions: evs})
	}
	var taskEvs []cluster.Eviction
	for _, ev := range evs {
		if m.lose(ev.Container, now) {
			m.Recovery.Evictions++
			continue
		}
		m.Recovery.TaskEvictions++
		taskEvs = append(taskEvs, ev)
	}
	if len(taskEvs) > 0 {
		m.Tasks.HandleEvictions(taskEvs)
	}
}

// PendingRepairs returns the number of containers awaiting repair.
func (m *Medea) PendingRepairs() int {
	n := 0
	for _, r := range m.repairs {
		n += len(r.lost)
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
	for _, r := range m.repairs {
		if !r.notBefore.After(now) {
			return true
		}
	}
	return false
}

// runRepairs attempts every due repair request with alg, the cycle's
// algorithm, one batch per degraded LRA. Each batch is all-or-nothing
// (Equation 4 applies to repairs too): either every lost container of
// the LRA is restored or the attempt fails and backs off.
func (m *Medea) runRepairs(alg lra.Algorithm, now time.Time, stats *CycleStats) {
	if len(m.repairs) == 0 {
		return
	}
	var due []string
	for appID, r := range m.repairs {
		if !r.notBefore.After(now) {
			due = append(due, appID)
		}
	}
	sort.Strings(due)
	for _, appID := range due {
		r := m.repairs[appID]
		dep := m.deployed[appID]
		if dep == nil {
			delete(m.repairs, appID) // LRA removed while degraded
			continue
		}
		m.attemptRepair(alg, r, dep, now, stats)
	}
}

// attemptRepair tries to place one repair batch with alg and commit it.
func (m *Medea) attemptRepair(alg lra.Algorithm, r *repairReq, dep *deployment, now time.Time, stats *CycleStats) {
	// Rebuild the lost container groups as a synthetic application. The
	// synthetic ID must differ from the original so generated container
	// IDs cannot collide with surviving containers; the group tags are
	// the ORIGINAL effective tags (incl. the original appID tag), so
	// constraint evaluation sees the repair containers exactly as it saw
	// the lost ones.
	m.repairSeq++
	synthID := fmt.Sprintf("%s~repair%d", r.appID, m.repairSeq)
	lostByGroup := map[string][]journal.DeployedContainer{}
	for _, p := range r.lost {
		lostByGroup[p.Group] = append(lostByGroup[p.Group], p)
	}
	var groups []lra.ContainerGroup
	for _, g := range dep.app.Groups {
		pieces := lostByGroup[g.Name]
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
	synth := &lra.Application{ID: synthID, Groups: groups, Constraints: dep.app.Constraints}

	res := m.safePlace(alg, m.Cluster, []*lra.Application{synth}, m.activeExcluding(map[string]bool{r.appID: true}))
	if !m.judge(res, 1, stats) {
		return // the algorithm's fault: attempt count and gate stay as they were
	}
	p := res.Placements[0]
	if !p.Placed {
		m.failRepair(r, now, stats)
		return
	}
	remapped, err := remapRepair(r, p, lostByGroup)
	if err == nil {
		// Commit-time validation on the batch actually committed (the
		// remapped one): capacity, health, duplicates and hard
		// constraints, exactly like initial placements, in place on the
		// live cluster and undone before the barrier.
		err = audit.CheckAssignments(m.Cluster, r.appID, remapped, m.Constraints.Active())
	}
	if err != nil {
		m.veto(stats)
		m.failRepair(r, now, stats)
		return
	}
	audit.Undo(m.Cluster, remapped)
	// Write-ahead: what is staged (the cycle's begin-batch, the records of
	// earlier repairs) is durable before the commit.
	m.barrier()
	if err := m.Tasks.Commit(remapped); err != nil {
		m.failRepair(r, now, stats) // lost a race; retry with backoff
		return
	}

	restoredIDs := make([]cluster.ContainerID, len(remapped))
	for i, a := range remapped {
		restoredIDs[i] = a.Container
	}
	// Post-commit record: if the process dies between the commit above
	// and this append, recovery finds the pieces alive in the cluster and
	// re-adopts them (the repair-piece reconciliation rule).
	m.logRecord(&journal.Record{Kind: journal.KindRepairOK, At: now, AppID: r.appID, Restored: restoredIDs})

	n, healedSince := m.restore(r.appID, restoredIDs)
	m.Recovery.RepairsPlaced += n
	// Repair latency is eviction→commit in scheduler time; the algorithm's
	// wall-clock solve latency is tracked separately (res.Latency) so the
	// metric stays deterministic under simulation.
	m.Recovery.ObserveRepair(now.Sub(r.since))
	stats.Repaired += n
	if !healedSince.IsZero() {
		m.Recovery.AddDegraded(now.Sub(healedSince))
	}
}

// remapRepair maps a repair placement's synthetic assignments back onto
// the lost containers, group by group: the original IDs, demands and
// tags, on the proposed nodes. A placement that does not cover the lost
// containers exactly (an unknown group, too many or too few
// assignments) is a defect, vetoed like a wrong-shaped batch placement.
func remapRepair(r *repairReq, p lra.Placement, lostByGroup map[string][]journal.DeployedContainer) ([]lra.Assignment, error) {
	next := make(map[string]int, len(lostByGroup))
	remapped := make([]lra.Assignment, 0, len(r.lost))
	for _, a := range p.Assignments {
		pieces := lostByGroup[a.Group]
		if next[a.Group] >= len(pieces) {
			return nil, fmt.Errorf("core: %s: repair assignment %s exceeds group %q's %d lost containers",
				r.appID, a.Container, a.Group, len(pieces))
		}
		piece := pieces[next[a.Group]]
		next[a.Group]++
		remapped = append(remapped, lra.Assignment{
			Container: piece.ID, Group: piece.Group, Node: a.Node,
			Demand: piece.Demand, Tags: piece.Tags,
		})
	}
	if len(remapped) != len(r.lost) {
		// Repairs are all-or-nothing.
		return nil, fmt.Errorf("core: %s: repair placed %d of %d lost containers", r.appID, len(remapped), len(r.lost))
	}
	return remapped, nil
}

// failRepair consumes one attempt of a repair that could not be placed,
// was vetoed or lost its commit race: it backs off, or is abandoned once
// the budget is spent.
func (m *Medea) failRepair(r *repairReq, now time.Time, stats *CycleStats) {
	r.attempts++
	m.Recovery.RepairAttemptsFailed++
	stats.RepairFailures++
	if r.attempts > repairMaxRetries {
		// Budget exhausted: the LRA stays degraded. Close the accounting
		// window here — degraded time measures the repair loop's
		// responsiveness, not the (unbounded) aftermath.
		m.Recovery.RepairsAbandoned++
		m.Recovery.AddDegraded(now.Sub(m.abandon(r.appID)))
		m.logRecord(&journal.Record{Kind: journal.KindRepairAbandon, At: now, AppID: r.appID})
		return
	}
	r.notBefore = now.Add(m.cfg.repairBackoffFor(r.appID, r.attempts))
	// The persisted attempt count and gate are the consumed budget: a
	// recovery-replayed repair resumes with r.attempts already spent.
	m.logRecord(&journal.Record{
		Kind: journal.KindRepairFail, At: now, AppID: r.appID,
		Attempts: r.attempts, NotBefore: r.notBefore,
	})
}
