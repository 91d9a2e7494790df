package core

import (
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/journal"
	"medea/internal/lra"
	"medea/internal/resource"
)

// journaledMedea builds a scheduler over a small grid with an attached
// in-memory journal, for restart-recovery tests.
func journaledMedea(t *testing.T, cfg Config) (*Medea, *journal.Memory) {
	t.Helper()
	c := cluster.Grid(4, 2, resource.New(16384, 8))
	m := New(c, lra.NewSerial(), cfg)
	j := journal.NewMemory()
	if err := m.AttachJournal(j, t0); err != nil {
		t.Fatal(err)
	}
	return m, j
}

// assignmentsOf reconstructs the placement intent for a deployed LRA from
// cluster truth, as a journal place record would have carried it.
func assignmentsOf(t *testing.T, m *Medea, appID string) []lra.Assignment {
	t.Helper()
	ids, ok := m.Deployed(appID)
	if !ok {
		t.Fatalf("%s not deployed", appID)
	}
	out := make([]lra.Assignment, 0, len(ids))
	for _, id := range ids {
		node, ok := m.Cluster.ContainerNode(id)
		if !ok {
			t.Fatalf("container %s not in cluster", id)
		}
		tags, _ := m.Cluster.ContainerTags(id)
		out = append(out, lra.Assignment{
			Container: id, Group: "w", Node: node,
			Demand: m.Cluster.ContainerDemand(id), Tags: tags,
		})
	}
	return out
}

// TestRecoverCleanState: a scheduler that journaled a full deploy/pending
// mix recovers to the same state from checkpoint + tail.
func TestRecoverCleanState(t *testing.T) {
	m, j := journaledMedea(t, Config{Interval: time.Second})
	if err := m.SubmitLRA(app("a", 3, "svc"), t0); err != nil {
		t.Fatal(err)
	}
	if stats := m.RunCycle(t0); stats.Placed != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	if err := m.SubmitLRA(app("b", 2), t0.Add(time.Second)); err != nil {
		t.Fatal(err)
	}

	r, err := Recover(j, m.Cluster, lra.NewSerial(), Config{Interval: time.Second}, t0.Add(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.DeployedApps(); len(got) != 1 || got[0] != "a" {
		t.Errorf("deployed = %v, want [a]", got)
	}
	ids, _ := r.Deployed("a")
	want, _ := m.Deployed("a")
	if len(ids) != len(want) {
		t.Errorf("a containers = %v, want %v", ids, want)
	}
	if got := r.PendingApps(); len(got) != 1 || got[0] != "b" {
		t.Errorf("pending = %v, want [b]", got)
	}
	if r.Recovery.JournalReplayed == 0 {
		t.Error("no records replayed despite a WAL tail")
	}
	if r.Recovery.OrphansReleased != 0 || r.Recovery.ZombiesRequeued != 0 {
		t.Errorf("clean recovery reconciled: %+v", r.Recovery)
	}
	// The recovered instance can schedule the pending app immediately.
	if stats := r.RunCycle(t0.Add(2 * time.Second)); stats.Placed != 1 {
		t.Errorf("recovered scheduler could not place b: %+v", stats)
	}
	// Recover wrote a fresh checkpoint: the next recovery replays nothing.
	cp, tail, err := j.Load()
	if err != nil || cp == nil {
		t.Fatalf("load after recover: cp=%v err=%v", cp, err)
	}
	if len(tail) != 0 && tail[0].Seq <= cp.Seq {
		t.Errorf("stale tail after recovery checkpoint: %+v", tail[0])
	}
}

// TestRecoverAdoptsCommittedIntent: a crash after the placement committed
// but before the commit-batch record must adopt the containers the
// cluster already runs, not double-place or leak them.
func TestRecoverAdoptsCommittedIntent(t *testing.T) {
	m, _ := journaledMedea(t, Config{Interval: time.Second})
	if err := m.SubmitLRA(app("a", 3, "svc"), t0); err != nil {
		t.Fatal(err)
	}
	if stats := m.RunCycle(t0); stats.Placed != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	before := m.Cluster.NumContainers()

	// Rebuild the journal as the crashed process would have left it: the
	// intent is durable, the commit-batch record is not.
	j := journal.NewMemory()
	empty := New(cluster.Grid(1, 1, resource.New(1024, 1)), lra.NewSerial(), Config{})
	if err := empty.AttachJournal(j, t0); err != nil {
		t.Fatal(err)
	}
	a := app("a", 3, "svc")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(j.Append(&journal.Record{Kind: journal.KindSubmit, At: t0, App: a, AppID: "a"}))
	must(j.Append(&journal.Record{Kind: journal.KindBeginBatch, At: t0, Cycle: 1, Batch: []string{"a"}}))
	must(j.Append(&journal.Record{Kind: journal.KindPlace, At: t0, AppID: "a", Assignments: assignmentsOf(t, m, "a")}))

	r, err := Recover(j, m.Cluster, lra.NewSerial(), Config{Interval: time.Second}, t0.Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.DeployedApps(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("deployed = %v, want [a]", got)
	}
	if r.Recovery.ContainersAdopted != 3 {
		t.Errorf("ContainersAdopted = %d, want 3", r.Recovery.ContainersAdopted)
	}
	if r.PendingLRAs() != 0 {
		t.Error("adopted app also re-queued")
	}
	if got := r.Cluster.NumContainers(); got != before {
		t.Errorf("cluster containers = %d, want %d (no leak, no double-place)", got, before)
	}
}

// TestRecoverReadmitsUncommittedBatch: a crash after begin-batch but
// before anything committed sends the batch back through the pending
// path with its persisted retry budget.
func TestRecoverReadmitsUncommittedBatch(t *testing.T) {
	m, j := journaledMedea(t, Config{Interval: time.Second})
	if err := m.SubmitLRA(app("b", 2), t0); err != nil {
		t.Fatal(err)
	}
	// The crash point: batch marked in flight, no intent, no commit.
	if err := j.Append(&journal.Record{Kind: journal.KindBeginBatch, At: t0, Cycle: 1, Batch: []string{"b"}}); err != nil {
		t.Fatal(err)
	}

	r, err := Recover(j, m.Cluster, lra.NewSerial(), Config{Interval: time.Second}, t0.Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.PendingApps(); len(got) != 1 || got[0] != "b" {
		t.Fatalf("pending = %v, want [b]", got)
	}
	if r.Recovery.BatchesReadmitted != 1 {
		t.Errorf("BatchesReadmitted = %d, want 1", r.Recovery.BatchesReadmitted)
	}
	if stats := r.RunCycle(t0.Add(time.Second)); stats.Placed != 1 {
		t.Errorf("re-admitted app did not place: %+v", stats)
	}
}

// TestRecoverPreservesRetryBudget: satellite regression — an LRA that
// consumed placement retries before the crash resumes with the persisted
// count, not a fresh budget.
func TestRecoverPreservesRetryBudget(t *testing.T) {
	m, j := journaledMedea(t, Config{Interval: time.Second, MaxRetries: 5})
	// 1000 containers never fit the 4-node grid: every cycle consumes one
	// retry and requeues.
	if err := m.SubmitLRA(app("huge", 1000), t0); err != nil {
		t.Fatal(err)
	}
	m.RunCycle(t0)
	m.RunCycle(t0.Add(time.Second))
	if got, ok := m.PendingRetries("huge"); !ok || got != 2 {
		t.Fatalf("live retries = %d (ok=%v), want 2", got, ok)
	}

	r, err := Recover(j, m.Cluster, lra.NewSerial(), Config{Interval: time.Second, MaxRetries: 5}, t0.Add(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := r.PendingRetries("huge"); !ok || got != 2 {
		t.Fatalf("recovered retries = %d (ok=%v), want 2", got, ok)
	}
	// Cycles 3–5 burn the rest of the budget of 5; cycle 6 rejects. A
	// fresh budget would have kept it pending for three more cycles.
	r.RunCycle(t0.Add(3 * time.Second))
	r.RunCycle(t0.Add(4 * time.Second))
	r.RunCycle(t0.Add(5 * time.Second))
	stats := r.RunCycle(t0.Add(6 * time.Second))
	if stats.Rejected != 1 {
		t.Errorf("stats = %+v, want rejection on the 6th total attempt", stats)
	}
}

// TestRecoverPreservesRepairBudget: satellite regression — a repair item
// replayed from the journal resumes with its persisted attempt count and
// backoff gate.
func TestRecoverPreservesRepairBudget(t *testing.T) {
	cfg := Config{Interval: time.Second, RepairBackoff: time.Second}
	m, _ := drainedPair(t, cfg)
	j := journal.NewMemory()
	if err := m.AttachJournal(j, t0); err != nil {
		t.Fatal(err)
	}
	t1 := t0.Add(time.Minute)
	m.FailNode(0, t1)
	m.RunCycle(t1) // repair attempt 1 fails (no capacity)
	if got, ok := m.RepairBudget("a"); !ok || got != 1 {
		t.Fatalf("live attempts = %d (ok=%v), want 1", got, ok)
	}

	r, err := Recover(j, m.Cluster, lra.NewSerial(), cfg, t1.Add(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := r.RepairBudget("a"); !ok || got != 1 {
		t.Fatalf("recovered attempts = %d (ok=%v), want 1", got, ok)
	}
	pieces := r.PendingRepairPieces()
	if got := len(pieces["a"]); got != 2 {
		t.Fatalf("repair pieces = %v, want 2 for a", pieces)
	}
	// The replayed backoff gate still stands: a cycle inside the window
	// does not burn attempt 2.
	r.RunCycle(t1.Add(cfg.repairBackoffFor("a", 1) - time.Millisecond))
	if got, _ := r.RepairBudget("a"); got != 1 {
		t.Errorf("attempt ran inside the replayed backoff window (attempts=%d)", got)
	}
	// The attempt at the gate fails (still no capacity) and is the
	// second: the budget carried over.
	stats := r.RunCycle(t1.Add(cfg.repairBackoffFor("a", 1)))
	if got, _ := r.RepairBudget("a"); got != 2 || stats.RepairFailures != 1 {
		t.Errorf("attempts = %d, stats = %+v; want 2 attempts consumed", got, stats)
	}
}

// TestRecoverZombieSweep: a container evicted behind the scheduler's back
// (the eviction record never made it to the journal) is detected against
// cluster truth and re-queued through the repair pipeline.
func TestRecoverZombieSweep(t *testing.T) {
	m, j := journaledMedea(t, Config{Interval: time.Second})
	if err := m.SubmitLRA(app("a", 3), t0); err != nil {
		t.Fatal(err)
	}
	m.RunCycle(t0)
	ids, _ := m.Deployed("a")
	if err := m.Cluster.Release(ids[0]); err != nil { // un-journaled loss
		t.Fatal(err)
	}

	now := t0.Add(time.Second)
	r, err := Recover(j, m.Cluster, lra.NewSerial(), Config{Interval: time.Second}, now)
	if err != nil {
		t.Fatal(err)
	}
	if r.Recovery.ZombiesRequeued != 1 {
		t.Errorf("ZombiesRequeued = %d, want 1", r.Recovery.ZombiesRequeued)
	}
	pieces := r.PendingRepairPieces()
	if got := pieces["a"]; len(got) != 1 || got[0] != ids[0] {
		t.Errorf("repair pieces = %v, want [%s]", pieces, ids[0])
	}
	deployed, _ := r.Deployed("a")
	if len(deployed) != 2 {
		t.Errorf("deployed containers = %v, want 2 survivors", deployed)
	}
	// The repair loop restores the zombie on the next cycle.
	if stats := r.RunCycle(now.Add(time.Second)); stats.Repaired != 1 {
		t.Errorf("stats = %+v, want 1 repaired", stats)
	}
}

// TestRecoverOrphanSweep: a crash right after the remove record, before
// any release, rolls the teardown forward — the LRA is gone and its
// surviving containers are released.
func TestRecoverOrphanSweep(t *testing.T) {
	m, j := journaledMedea(t, Config{Interval: time.Second})
	if err := m.SubmitLRA(app("a", 3), t0); err != nil {
		t.Fatal(err)
	}
	m.RunCycle(t0)
	base := m.Cluster.NumContainers() - 3
	// The crash point: teardown intent durable, zero releases applied.
	if err := j.Append(&journal.Record{Kind: journal.KindRemove, AppID: "a"}); err != nil {
		t.Fatal(err)
	}

	r, err := Recover(j, m.Cluster, lra.NewSerial(), Config{Interval: time.Second}, t0.Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if r.DeployedLRAs() != 0 {
		t.Errorf("deployed = %v, want none", r.DeployedApps())
	}
	if r.Recovery.OrphansReleased != 3 {
		t.Errorf("OrphansReleased = %d, want 3", r.Recovery.OrphansReleased)
	}
	if got := r.Cluster.NumContainers(); got != base {
		t.Errorf("cluster containers = %d, want %d", got, base)
	}
}

// TestRecoverRepairAckLost: a crash after the repair committed but before
// its repair-ok record re-adopts the restored containers from cluster
// truth instead of repairing them twice.
func TestRecoverRepairAckLost(t *testing.T) {
	cfg := Config{Interval: time.Second, RepairBackoff: time.Second}
	m, j := journaledMedea(t, cfg)
	if err := m.SubmitLRA(app("a", 3), t0); err != nil {
		t.Fatal(err)
	}
	m.RunCycle(t0)
	t1 := t0.Add(time.Minute)
	evs := m.FailNode(0, t1)
	if len(evs) == 0 {
		t.Skip("layout put nothing on node 0")
	}
	if stats := m.RunCycle(t1); stats.Repaired != len(evs) {
		t.Fatalf("repair did not restore: %+v", stats)
	}
	// Simulate the lost ack: rebuild the journal without the repair-ok
	// record by dropping the live journal's tail after the evict record.
	cp, tail, err := j.Load()
	if err != nil {
		t.Fatal(err)
	}
	j2 := journal.NewMemory()
	if err := j2.WriteCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	for _, rec := range tail {
		if rec.Kind == journal.KindRepairOK {
			break // the crash ate this record and everything after
		}
		if err := j2.Append(rec); err != nil {
			t.Fatal(err)
		}
	}

	r, err := Recover(j2, m.Cluster, lra.NewSerial(), cfg, t1.Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	deployed, ok := r.Deployed("a")
	if !ok || len(deployed) != 3 {
		t.Fatalf("deployed = %v (ok=%v), want 3 containers", deployed, ok)
	}
	if len(r.PendingRepairPieces()) != 0 {
		t.Errorf("repair still pending after adoption: %v", r.PendingRepairPieces())
	}
	if r.Recovery.ContainersAdopted != len(evs) {
		t.Errorf("ContainersAdopted = %d, want %d", r.Recovery.ContainersAdopted, len(evs))
	}
}

// TestRepairBackoffSchedulePinned: satellite — the deterministic jittered
// backoff schedule is a pure function of (config, appID, attempts). The
// literals pin the FNV-1a-derived schedule; any change to the jitter
// derivation breaks journal-replay equivalence and must show up here.
func TestRepairBackoffSchedulePinned(t *testing.T) {
	cfg := Config{RepairBackoff: time.Second} // max defaults to 8s
	want := map[string][]time.Duration{
		"a": {1068758675, 2205386886, 4467015097, 8478643308, 8990271519},
		"b": {1021897598, 2010269387, 4498641176, 8580038653, 8068410442},
	}
	for appID, gates := range want {
		for i, g := range gates {
			if got := cfg.repairBackoffFor(appID, i+1); got != g {
				t.Errorf("repairBackoffFor(%q, %d) = %d, want %d", appID, i+1, got, g)
			}
		}
	}
	// Structural properties, independent of the pinned constants: the
	// jitter stays within [raw, raw+raw/8) of the un-jittered exponential.
	for attempts := 1; attempts <= 6; attempts++ {
		raw := time.Second << uint(attempts-1)
		if raw > 8*time.Second {
			raw = 8 * time.Second
		}
		got := cfg.repairBackoffFor("c", attempts)
		if got < raw || got >= raw+raw/8 {
			t.Errorf("attempt %d: %v outside [%v, %v)", attempts, got, raw, raw+raw/8)
		}
	}
	// Determinism across calls and across equivalent Config values (the
	// property replay relies on).
	if cfg.repairBackoffFor("a", 3) != (Config{RepairBackoff: time.Second}).repairBackoffFor("a", 3) {
		t.Error("schedule not a pure function of its inputs")
	}
	// Huge attempt counts neither overflow nor exceed the cap window.
	if got := cfg.repairBackoffFor("a", 1000); got < 8*time.Second || got >= 9*time.Second {
		t.Errorf("attempt 1000 = %v, want within [8s, 9s)", got)
	}
}

// TestRecoverEmptyJournal: recovering from a journal holding only the
// attach-time checkpoint of an empty scheduler yields a working empty
// scheduler.
func TestRecoverEmptyJournal(t *testing.T) {
	m, j := journaledMedea(t, Config{Interval: time.Second})
	r, err := Recover(j, m.Cluster, lra.NewSerial(), Config{Interval: time.Second}, t0)
	if err != nil {
		t.Fatal(err)
	}
	if r.DeployedLRAs() != 0 || r.PendingLRAs() != 0 {
		t.Errorf("recovered non-empty: deployed=%d pending=%d", r.DeployedLRAs(), r.PendingLRAs())
	}
	if err := r.SubmitLRA(app("x", 1), t0); err != nil {
		t.Fatal(err)
	}
	if stats := r.RunCycle(t0); stats.Placed != 1 {
		t.Errorf("stats = %+v", stats)
	}
}
