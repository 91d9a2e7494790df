package core

import (
	"fmt"
	"sort"
	"time"

	"medea/internal/cluster"
	"medea/internal/journal"
	"medea/internal/lra"
	"medea/internal/taskched"
)

// Restart recovery. The failure model is a scheduler process crash: the
// cluster (and the containers on it) keeps running, the journal survives,
// and everything in the Medea struct is lost. Recover rebuilds the
// scheduler in three passes:
//
//  1. restore the latest checkpoint (full durable state at one record
//     boundary);
//  2. replay the WAL tail over it, tracking the in-flight window of an
//     unfinished cycle (begin-batch without commit-batch) and its
//     placement intents;
//  3. reconcile against live cluster truth — the journal can be at most
//     one operation behind the cluster, in either direction:
//     - placement intents whose containers the cluster runs are adopted
//       as deployments (roll-forward); intents that never committed send
//       their app back through the normal pending path;
//     - repair pieces the cluster already runs (commit landed, the
//       repair-ok record did not) are re-adopted;
//     - deployed containers the cluster lost (eviction before its record
//       landed) are re-queued as zombies through the repair pipeline,
//       keeping any persisted attempt budget;
//     - containers the cluster runs for an LRA nothing owns any more
//       (crash mid-RemoveLRA) are released as orphans.
//
// Deliberately NOT persisted: metrics (counters restart at zero), the
// task-based scheduler's queue accounting (tasks are short-lived and
// re-submitted by their owners; unknown-container evictions are no-ops),
// and solver-internal state. Cluster truth is authoritative over the
// checkpoint's informational cluster snapshot.

// replayState tracks the open batch window while replaying the WAL tail.
type replayState struct {
	inFlight   map[string]*pendingApp
	intents    map[string][]lra.Assignment
	batchOrder []string
	// lraSeen accumulates every container ID the journal associated with
	// an LRA; the orphan sweep releases the unowned survivors among them.
	lraSeen map[cluster.ContainerID]bool
}

// Recover rebuilds a scheduler from its journal and the live cluster.
// now is the scheduler time recovery happens at (backoff gates and
// degradation windows for re-queued zombies start here). The journal is
// re-attached to the recovered instance and a fresh checkpoint is
// written, so the next recovery replays a short tail.
func Recover(j journal.Journal, c *cluster.Cluster, alg lra.Algorithm, cfg Config, now time.Time, queues ...taskched.QueueConfig) (*Medea, error) {
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	start := clock()
	cp, tail, err := j.Load()
	if err != nil {
		return nil, fmt.Errorf("core: recover: %w", err)
	}
	m := New(c, alg, cfg, queues...)
	rp := &replayState{
		inFlight: make(map[string]*pendingApp),
		intents:  make(map[string][]lra.Assignment),
		lraSeen:  make(map[cluster.ContainerID]bool),
	}
	if cp != nil {
		if err := m.restoreCheckpoint(cp); err != nil {
			return nil, fmt.Errorf("core: recover: %w", err)
		}
	}
	for _, dep := range m.deployed {
		for id := range dep.containers {
			rp.lraSeen[id] = true
		}
	}
	for _, r := range m.repairs {
		for _, c := range r.lost {
			rp.lraSeen[c.ID] = true
		}
	}
	for _, r := range tail {
		if err := m.replayRecord(r, rp); err != nil {
			return nil, fmt.Errorf("core: recover: replaying record %d (%s): %w", r.Seq, r.Kind, err)
		}
		m.Recovery.JournalReplayed++
	}
	m.reconcile(rp, now)
	if err := m.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("core: recover: recovered state fails invariants: %w", err)
	}
	m.Recovery.RecoveryWallTime = clock().Sub(start)
	m.jnl = j
	m.writeCheckpoint(now)
	return m, nil
}

// restoreCheckpoint loads a checkpoint into a fresh instance.
func (m *Medea) restoreCheckpoint(cp *journal.Checkpoint) error {
	m.cycles = cp.Cycles
	m.repairSeq = cp.RepairSeq
	m.taskSeq = cp.TaskSeq
	m.nextRun = cp.NextRun
	m.Rejected = append([]string(nil), cp.Rejected...)
	if len(cp.Operator) > 0 {
		if err := m.Constraints.AddOperator(cp.Operator...); err != nil {
			return err
		}
	}
	for _, pa := range cp.Pending {
		if pa.App == nil {
			return fmt.Errorf("checkpoint pending entry without application")
		}
		if err := m.enqueue(pa.App, pa.Submit, pa.Retries); err != nil {
			return err
		}
	}
	for _, da := range cp.Deployed {
		if da.App == nil {
			return fmt.Errorf("checkpoint deployed entry without application")
		}
		if err := m.Constraints.AddApplication(da.App.ID, da.App.Constraints...); err != nil {
			return err
		}
		dep := &deployment{
			app:           da.App,
			containers:    make(map[cluster.ContainerID]journal.DeployedContainer, len(da.Containers)),
			degradedSince: da.DegradedSince,
		}
		for _, c := range da.Containers {
			m.adopt(dep, c)
		}
		m.deployed[da.App.ID] = dep
	}
	for _, it := range cp.Repairs {
		m.repairs[it.AppID] = &repairReq{
			appID: it.AppID, lost: it.Lost, attempts: it.Attempts, notBefore: it.NotBefore, since: it.Since,
		}
	}
	if m.brk != nil && cp.Breaker != nil {
		m.brk.restore(cp.Breaker)
	}
	return nil
}

// replayRecord applies one WAL record to the rebuilding scheduler state:
// it hands the record's fields to the transition the live path ran beside
// it. Three kinds have no live counterpart and stay replay-specific —
// begin-batch, place and commit-batch — because only replay has to hold a
// cycle's apps and placement intents aside until it learns whether they
// committed. Replay touches scheduler bookkeeping only — never the
// cluster, whose live state is truth the reconciliation sweep compares
// against.
func (m *Medea) replayRecord(r *journal.Record, rp *replayState) error {
	switch r.Kind {
	case journal.KindSubmit:
		if r.App == nil {
			return fmt.Errorf("submit record without application")
		}
		return m.enqueue(r.App, r.At, 0)

	case journal.KindBeginBatch:
		m.cycles = r.Cycle
		m.nextRun = r.NextRun
		rp.batchOrder = r.Batch
		taken := make(map[string]bool, len(r.Batch))
		for _, appID := range r.Batch {
			taken[appID] = true
		}
		var rest []*pendingApp
		for _, pa := range m.pending {
			if taken[pa.app.ID] && rp.inFlight[pa.app.ID] == nil {
				rp.inFlight[pa.app.ID] = pa
				continue
			}
			rest = append(rest, pa)
		}
		m.pending = rest

	case journal.KindPlace:
		rp.intents[r.AppID] = r.Assignments
		for _, a := range r.Assignments {
			rp.lraSeen[a.Container] = true
		}

	case journal.KindRequeue:
		if pa := rp.resolve(r.AppID); pa != nil {
			m.requeue(pa, r.Retries)
		}

	case journal.KindReject:
		rp.resolve(r.AppID)
		m.reject(r.AppID)

	case journal.KindCommitBatch:
		m.cycles = r.Cycle
		// Every in-flight app with an intent committed before this record
		// was written; resolve them into deployments.
		for _, appID := range rp.batchOrder {
			pa := rp.inFlight[appID]
			if pa == nil {
				continue
			}
			if intent := rp.intents[appID]; len(intent) > 0 {
				m.deploy(pa.app, intent)
			} else {
				// Defensive: a batch member with neither intent nor
				// requeue/reject should not exist; re-queue it unchanged.
				m.requeue(pa, pa.retries)
			}
		}
		rp.inFlight = make(map[string]*pendingApp)
		rp.intents = make(map[string][]lra.Assignment)
		rp.batchOrder = nil
		if m.brk != nil && r.Breaker != nil {
			m.brk.restore(r.Breaker)
		}

	case journal.KindEvict:
		for _, ev := range r.Evictions {
			// Task evictions are skipped: queue accounting is not persisted.
			if _, owned := m.lose(ev.Container, r.At); owned {
				rp.lraSeen[ev.Container] = true
			}
		}

	case journal.KindRepairOK:
		m.restore(r.AppID, r.Restored)

	case journal.KindRepairFail:
		if req := m.repairs[r.AppID]; req != nil {
			req.attempts = r.Attempts
			req.notBefore = r.NotBefore
		}

	case journal.KindRepairAbandon:
		m.abandon(r.AppID)

	case journal.KindRemove:
		// Scheduler-side teardown only; the crashed process may have
		// released any subset of the containers. They go into lraSeen, so
		// the orphan sweep finishes the job against cluster truth. A
		// withdrawn pending LRA (WithdrawLRA) journals the same record and
		// owns none.
		rp.resolve(r.AppID)
		for _, id := range m.forget(r.AppID) {
			rp.lraSeen[id] = true
		}

	case journal.KindNodeRecover:
		m.clearBackoffs(r.At)

	default:
		return fmt.Errorf("unknown record kind %q", r.Kind)
	}
	return nil
}

// resolve takes appID out of the open batch window, returning its
// in-flight entry (nil if it had none).
func (rp *replayState) resolve(appID string) *pendingApp {
	pa := rp.inFlight[appID]
	delete(rp.inFlight, appID)
	delete(rp.intents, appID)
	return pa
}

// reconcile aligns the replayed scheduler state with live cluster truth.
func (m *Medea) reconcile(rp *replayState, now time.Time) {
	// 1. Half-applied batch: a begin-batch without its commit-batch left
	// apps in flight. An app whose intent the cluster honors is adopted;
	// one whose commit never landed (or that never reached placement)
	// goes back through the normal pending path with its persisted retry
	// budget.
	for _, appID := range rp.batchOrder {
		pa := rp.inFlight[appID]
		if pa == nil {
			continue // resolved by a requeue/reject record
		}
		intent := rp.intents[appID]
		committed := len(intent) > 0
		for _, a := range intent {
			if !m.running(a.Container) {
				committed = false // task commits are atomic: all or nothing
				break
			}
		}
		if !committed {
			m.requeue(pa, pa.retries)
			m.Recovery.BatchesReadmitted++
			continue
		}
		m.deploy(pa.app, intent)
		m.Recovery.ContainersAdopted += len(intent)
	}

	// 2. Repair pieces the cluster already runs: the repair committed but
	// the crash beat its repair-ok record. Re-adopt them; what remains
	// lost keeps its persisted attempt budget.
	for _, appID := range sortedRepairIDs(m.repairs) {
		var running []cluster.ContainerID
		for _, c := range m.repairs[appID].lost {
			if m.running(c.ID) {
				running = append(running, c.ID)
			}
		}
		n, _ := m.restore(appID, running)
		m.Recovery.ContainersAdopted += n
	}

	// 3. Zombie sweep: deployed containers the cluster no longer runs
	// (an eviction whose record never landed, or state the checkpoint
	// believed in). Re-queue them through the repair pipeline.
	for _, appID := range m.DeployedApps() {
		ids, _ := m.Deployed(appID)
		for _, id := range ids {
			if !m.running(id) {
				m.lose(id, now)
				m.Recovery.ZombiesRequeued++
			}
		}
	}

	// 4. Orphan sweep: containers the cluster runs for an LRA that no
	// longer owns them (crash mid-RemoveLRA, or an adoption the journal
	// later walked back). Release them — nothing will ever reclaim them.
	orphans := make([]cluster.ContainerID, 0, len(rp.lraSeen))
	for id := range rp.lraSeen {
		orphans = append(orphans, id)
	}
	sort.Slice(orphans, func(i, j int) bool { return orphans[i] < orphans[j] })
	for _, id := range orphans {
		if _, owned := m.owner[id]; owned || !m.running(id) {
			continue
		}
		if err := m.Cluster.Release(id); err != nil {
			panic(err) // unreachable: the container was just looked up
		}
		m.Recovery.OrphansReleased++
	}
}

// running reports whether the cluster runs the container.
func (m *Medea) running(id cluster.ContainerID) bool {
	_, ok := m.Cluster.ContainerNode(id)
	return ok
}

func sortedRepairIDs(repairs map[string]*repairReq) []string {
	out := make([]string, 0, len(repairs))
	for appID := range repairs {
		out = append(out, appID)
	}
	sort.Strings(out)
	return out
}
