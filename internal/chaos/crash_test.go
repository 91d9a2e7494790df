package chaos

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"medea/internal/audit"
	"medea/internal/cluster"
	"medea/internal/core"
	"medea/internal/journal"
	"medea/internal/lra"
	"medea/internal/resource"
)

// crashHarness builds the fig8-style crash-test script: a 12-node grid
// absorbing 24 LRAs under four failure/recovery waves, three teardowns
// and two late arrivals, followed by a settle tail long enough for every
// backoff gate to expire. Everything is deterministic: Serial placement,
// scripted times, jittered-but-pure backoff.
func crashHarness() *Harness {
	sec := func(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }
	var ops []Op
	for t := 0; t <= 95; t++ {
		ops = append(ops, Op{Kind: OpTick, At: sec(float64(t))})
	}
	for i := 0; i < 24; i++ {
		ops = append(ops, Op{
			Kind: OpSubmit, At: sec(float64(i) + 0.1),
			App: fmt.Sprintf("app-%02d", i), Containers: 3,
		})
	}
	events := []Op{
		// Wave 1: rolling three-node outage.
		{Kind: OpFail, At: sec(5.5), Node: 0},
		{Kind: OpFail, At: sec(7.5), Node: 1},
		{Kind: OpFail, At: sec(9.5), Node: 2},
		{Kind: OpRecover, At: sec(12.5), Node: 0},
		{Kind: OpRecover, At: sec(13.5), Node: 1},
		{Kind: OpRecover, At: sec(14.5), Node: 2},
		// Teardowns while the cluster is healthy.
		{Kind: OpRemove, At: sec(20.2), App: "app-00"},
		{Kind: OpRemove, At: sec(21.2), App: "app-05"},
		// Wave 2.
		{Kind: OpFail, At: sec(22.5), Node: 3},
		{Kind: OpFail, At: sec(24.5), Node: 4},
		{Kind: OpRecover, At: sec(27.5), Node: 3},
		{Kind: OpRecover, At: sec(28.5), Node: 4},
		{Kind: OpRemove, At: sec(29.2), App: "app-11"},
		// Wave 3, revisiting a healed node, with late arrivals.
		{Kind: OpFail, At: sec(30.5), Node: 5},
		{Kind: OpSubmit, At: sec(31.2), App: "app-24", Containers: 3},
		{Kind: OpFail, At: sec(32.5), Node: 0},
		{Kind: OpSubmit, At: sec(33.2), App: "app-25", Containers: 3},
		{Kind: OpRecover, At: sec(35.5), Node: 5},
		{Kind: OpRecover, At: sec(36.5), Node: 0},
		// Wave 4.
		{Kind: OpFail, At: sec(38.5), Node: 1},
		{Kind: OpFail, At: sec(40.5), Node: 2},
		{Kind: OpRecover, At: sec(43.5), Node: 1},
		{Kind: OpRecover, At: sec(44.5), Node: 2},
		// Wave 5: deeper into the grid, with an arrival right behind the
		// first failure, so one cycle carries repairs and a new LRA; then
		// a final teardown.
		{Kind: OpFail, At: sec(46.5), Node: 6},
		{Kind: OpSubmit, At: sec(46.7), App: "app-26", Containers: 3},
		{Kind: OpFail, At: sec(48.5), Node: 7},
		{Kind: OpRecover, At: sec(51.5), Node: 6},
		{Kind: OpRecover, At: sec(52.5), Node: 7},
		{Kind: OpRemove, At: sec(54.2), App: "app-02"},
	}
	ops = append(ops, events...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].At < ops[j].At })
	return &Harness{
		Script:  ops,
		Base:    time.Unix(5000, 0),
		Config:  core.Config{Interval: time.Second, Audit: audit.FailFast},
		Nodes:   12,
		NodeCap: resource.New(16384, 8),
		Demand:  resource.New(2048, 1),
	}
}

// TestCrashPointMatrix is the central durability proof: the scheduler is
// killed before EVERY single durability operation of the scripted run,
// recovered from the surviving journal against the surviving cluster,
// and driven to the end of the script. Every recovered end state must be
// semantically identical to the never-crashed reference — no lost LRAs,
// no duplicated or leaked containers, invariants intact.
func TestCrashPointMatrix(t *testing.T) {
	h := crashHarness()
	ref, cj, err := h.Reference(journal.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	totalOps := cj.Ops
	if totalOps < 200 {
		t.Fatalf("script produced %d durability ops, want >= 200 for a meaningful matrix", totalOps)
	}
	// A kill during a checkpoint is covered only if the run writes one
	// after the attach-time checkpoint.
	if cj.Checkpoints < 2 {
		t.Fatalf("script wrote %d checkpoints, want >= 2 so the matrix kills one after attach", cj.Checkpoints)
	}
	t.Logf("%d of the ops are checkpoints", cj.Checkpoints)
	t.Logf("killing the script before each of its %d durability ops", totalOps)
	refFP := Fingerprint(ref)
	if err := ref.CheckInvariants(); err != nil {
		t.Fatalf("reference invariants: %v", err)
	}
	if err := CheckNoLeaks(ref); err != nil {
		t.Fatalf("reference leaks: %v", err)
	}
	if len(ref.Rejected) != 0 {
		t.Fatalf("reference rejected %v; the script must keep placements conflict-free", ref.Rejected)
	}
	if got := len(ref.DeployedApps()); got != 23 { // 27 submitted - 4 removed
		t.Fatalf("reference deployed %d LRAs, want 23", got)
	}
	_, first, last := mergedCycle(t, h)
	t.Logf("ops %d..%d run the cycle that carries repairs and a new LRA", first+1, last)

	for killAt := 1; killAt <= totalOps; killAt++ {
		m, crashed, err := h.RunWithCrash(journal.NewMemory(), killAt)
		if err != nil {
			t.Fatalf("killAt %d: %v", killAt, err)
		}
		if !crashed {
			t.Fatalf("killAt %d within %d ops did not fire", killAt, totalOps)
		}
		if got := Fingerprint(m); got != refFP {
			t.Fatalf("killAt %d: recovered state diverged from reference\n--- recovered ---\n%s--- reference ---\n%s",
				killAt, got, refFP)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("killAt %d: invariants: %v", killAt, err)
		}
		if err := CheckNoLeaks(m); err != nil {
			t.Fatalf("killAt %d: %v", killAt, err)
		}
	}
}

// TestCrashPointFileBackend re-runs a spread of kill points against the
// file-backed journal: the same recovery guarantees must hold through
// real encode/flush/rotate/reopen cycles, not just the in-memory model.
func TestCrashPointFileBackend(t *testing.T) {
	h := crashHarness()
	ref, cj, err := h.Reference(journal.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	totalOps := cj.Ops
	if cj.Checkpoints < 2 {
		t.Fatalf("script wrote %d checkpoints, want >= 2 so a kill point falls after attach", cj.Checkpoints)
	}
	refFP := Fingerprint(ref)

	points := []int{1, 2, totalOps / 4, totalOps / 2, 3 * totalOps / 4, totalOps}
	// Every kill point inside the cycle that carries repairs and a new
	// LRA: before its begin-batch, before each intent, before its
	// write-ahead barrier and before its commit-batch.
	_, first, last := mergedCycle(t, h)
	for killAt := first + 1; killAt <= last; killAt++ {
		points = append(points, killAt)
	}
	for _, killAt := range points {
		j, err := journal.OpenDir(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		m, crashed, err := h.RunWithCrash(j, killAt)
		if err != nil {
			t.Fatalf("killAt %d: %v", killAt, err)
		}
		if !crashed {
			t.Fatalf("killAt %d did not fire", killAt)
		}
		if got := Fingerprint(m); got != refFP {
			t.Fatalf("killAt %d: file-backed recovery diverged\n--- recovered ---\n%s--- reference ---\n%s",
				killAt, got, refFP)
		}
		if err := CheckNoLeaks(m); err != nil {
			t.Fatalf("killAt %d: %v", killAt, err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// mergedCycle finds the scripted tick whose cycle carries due repairs of
// several LRAs and a new LRA (the 47 s tick: node 6 fails at 46.5 s,
// app-26 arrives at 46.7 s), checks on a reference run that it does,
// and returns its script index k and the durability ops it runs: those
// numbered first+1 to last, its trailing Sync included.
func mergedCycle(t *testing.T, h *Harness) (k, first, last int) {
	t.Helper()
	k = -1
	for i, op := range h.Script {
		if op.Kind == OpTick && op.At == 47*time.Second {
			k = i
		}
	}
	if k < 0 {
		t.Fatal("script has no tick at 47s")
	}
	pre := *h
	pre.Script = h.Script[:k]
	m, cj, err := pre.Reference(journal.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	if repairs, pending := len(m.PendingRepairPieces()), m.PendingLRAs(); repairs < 2 || pending < 1 {
		t.Fatalf("the 47s cycle carries %d repairs and %d new LRAs, want at least 2 and 1", repairs, pending)
	}
	first = cj.Ops
	pre.Script = h.Script[:k+1]
	if _, cj, err = pre.Reference(journal.NewMemory()); err != nil {
		t.Fatal(err)
	}
	return k, first, cj.Ops
}

// recorder keeps every record handed to the journal it wraps.
type recorder struct {
	journal.Journal
	recs []*journal.Record
}

func (r *recorder) Append(rec *journal.Record) error {
	r.recs = append(r.recs, rec)
	return r.Journal.Append(rec)
}

// TestCrashPointBetweenMergedCommits kills the scheduler between two
// commits of the cycle that carries repairs and a new LRA. No durability
// operation separates two commits, so no kill point of the matrix lands
// there; the test builds what such a crash leaves instead: the journal
// as the cycle's write-ahead barrier made it durable (every intent, no
// commit-batch) and the cluster holding the first commit only. Recovery
// must adopt the first entry, put every other entry back in line, and
// the rest of the script must converge on the reference.
func TestCrashPointBetweenMergedCommits(t *testing.T) {
	h := crashHarness()
	ref, _, err := h.Reference(journal.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	k, _, _ := mergedCycle(t, h)

	rec := &recorder{Journal: journal.NewMemory()}
	pre := *h
	pre.Script = h.Script[:k]
	m, _, err := pre.Reference(rec)
	if err != nil {
		t.Fatal(err)
	}
	durable := rec.Journal.(*journal.Memory).Clone()
	c := m.Cluster.Clone()
	n := len(rec.recs)
	if err := h.apply(m, h.Script[k]); err != nil {
		t.Fatal(err)
	}
	var intents []*journal.Record
	for _, r := range rec.recs[n:] {
		if r.Kind == journal.KindCommitBatch {
			break
		}
		cp := *r
		if err := durable.Append(&cp); err != nil {
			t.Fatal(err)
		}
		if r.Kind == journal.KindPlace {
			intents = append(intents, r)
		}
	}
	if len(intents) < 3 {
		t.Fatalf("the cycle staged %d intents, want at least 3", len(intents))
	}
	for _, a := range intents[0].Assignments {
		if err := c.Allocate(a.Node, a.Container, a.Demand, a.Tags); err != nil {
			t.Fatal(err)
		}
	}

	now := h.Base.Add(h.Script[k].At)
	r, err := core.Recover(durable, c, lra.NewSerial(), h.Config, now)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Recovery.ContainersAdopted, len(intents[0].Assignments); got != want {
		t.Errorf("adopted %d containers, want the first commit's %d", got, want)
	}
	if got := r.Recovery.BatchesReadmitted; got < len(intents)-1 {
		t.Errorf("%d entries back in line, want at least the %d uncommitted intents", got, len(intents)-1)
	}
	for i := k; i < len(h.Script); i++ {
		if err := h.apply(r, h.Script[i]); err != nil {
			t.Fatalf("resumed op %d: %v", i, err)
		}
	}
	if got, want := Fingerprint(r), Fingerprint(ref); got != want {
		t.Fatalf("recovered state diverged from reference\n--- recovered ---\n%s--- reference ---\n%s", got, want)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := CheckNoLeaks(r); err != nil {
		t.Fatal(err)
	}
}

// TestCrashJournalReportsLag: the wrapper must not hide the journal's
// lag. The same submits read the same JournalLag over a bare journal and
// through a CrashJournal, both while the records are staged and after
// the barrier that hands them over.
func TestCrashJournalReportsLag(t *testing.T) {
	run := func(j journal.Journal) (staged, synced int) {
		m := core.New(cluster.Grid(4, 2, resource.New(16384, 8)), lra.NewNodeCandidates(), core.Config{})
		now := time.Unix(5000, 0)
		if err := m.AttachJournal(j, now); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			app := &lra.Application{ID: fmt.Sprintf("app-%d", i), Groups: []lra.ContainerGroup{
				{Name: "w", Count: 1, Demand: resource.New(1024, 1)},
			}}
			if err := m.SubmitLRA(app, now); err != nil {
				t.Fatal(err)
			}
		}
		staged = m.JournalLag()
		if err := m.Sync(); err != nil {
			t.Fatal(err)
		}
		return staged, m.JournalLag()
	}
	bareStaged, bareSynced := run(journal.NewMemory())
	if bareStaged == 0 || bareSynced != bareStaged {
		t.Fatalf("bare journal lag %d staged / %d synced, want equal and > 0", bareStaged, bareSynced)
	}
	staged, synced := run(&CrashJournal{Journal: journal.NewMemory()})
	if staged != bareStaged || synced != bareSynced {
		t.Fatalf("wrapped journal lag %d staged / %d synced, want %d / %d as bare", staged, synced, bareStaged, bareSynced)
	}
}

// TestCrashJournalCheckpointsLikeJournal: the wrapper must not hide the
// records it stages from the checkpoint rule. One script checkpoints
// after the same cycles over a bare journal and through a CrashJournal,
// though the records a cycle appends after its write-ahead barrier (the
// commit-batch that closes it, and all of them when it places nothing)
// are still staged in the wrapper when the core asks whether a
// checkpoint is due.
func TestCrashJournalCheckpointsLikeJournal(t *testing.T) {
	run := func(j journal.Journal) []int {
		m := core.New(cluster.Grid(8, 4, resource.New(16384, 8)), lra.NewNodeCandidates(), core.Config{MaxRetries: 1000})
		now := time.Unix(5000, 0)
		if err := m.AttachJournal(j, now); err != nil {
			t.Fatal(err)
		}
		// An app no node can hold keeps every cycle busy requeueing it.
		stuck := &lra.Application{ID: "stuck", Groups: []lra.ContainerGroup{
			{Name: "w", Count: 1, Demand: resource.New(32768, 1)},
		}}
		if err := m.SubmitLRA(stuck, now); err != nil {
			t.Fatal(err)
		}
		var cycles []int
		for i := 0; i < 120; i++ {
			now = now.Add(time.Second)
			if i%3 == 0 {
				app := &lra.Application{ID: fmt.Sprintf("app-%03d", i), Groups: []lra.ContainerGroup{
					{Name: "w", Count: 1 + i%4, Demand: resource.New(1024, 1)},
				}}
				if err := m.SubmitLRA(app, now); err != nil {
					t.Fatal(err)
				}
			}
			if i%3 == 1 && i > 12 {
				if err := m.RemoveLRA(fmt.Sprintf("app-%03d", i-13)); err != nil {
					t.Fatal(err)
				}
			}
			m.RunCycle(now)
			if m.JournalLag() == 0 { // the cycle ended with a checkpoint
				cycles = append(cycles, i)
			}
			if err := m.Sync(); err != nil {
				t.Fatal(err)
			}
		}
		return cycles
	}
	bare := run(journal.NewMemory())
	if len(bare) < 2 {
		t.Fatalf("bare journal checkpointed after cycles %v, want at least two", bare)
	}
	if wrapped := run(&CrashJournal{Journal: journal.NewMemory()}); fmt.Sprint(wrapped) != fmt.Sprint(bare) {
		t.Fatalf("wrapped journal checkpointed after cycles %v, bare after %v", wrapped, bare)
	}
}

// TestCrashPointDeterminism: the reference run is bit-stable — same op
// count, same fingerprint — across executions, the property the whole
// matrix rests on (ops 1..k-1 of a crashed run must equal the
// reference's prefix for kill point k to mean anything).
func TestCrashPointDeterminism(t *testing.T) {
	h := crashHarness()
	m1, cj1, err := h.Reference(journal.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	m2, cj2, err := h.Reference(journal.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	if cj1.Ops != cj2.Ops {
		t.Fatalf("op counts differ across runs: %d vs %d", cj1.Ops, cj2.Ops)
	}
	if Fingerprint(m1) != Fingerprint(m2) {
		t.Fatal("reference fingerprints differ across runs")
	}
}
