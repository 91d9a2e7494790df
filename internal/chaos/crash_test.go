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
		// Wave 5: deeper into the grid, then a final teardown.
		{Kind: OpFail, At: sec(46.5), Node: 6},
		{Kind: OpFail, At: sec(48.5), Node: 7},
		{Kind: OpRecover, At: sec(51.5), Node: 6},
		{Kind: OpRecover, At: sec(52.5), Node: 7},
		{Kind: OpRemove, At: sec(54.2), App: "app-02"},
	}
	ops = append(ops, events...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].At < ops[j].At })
	return &Harness{
		Script: ops,
		Base:   time.Unix(5000, 0),
		Config: core.Config{
			Interval: time.Second, RepairBackoff: time.Second,
			CheckpointEvery: 4, Audit: audit.FailFast,
		},
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
	ref, totalOps, err := h.Reference(journal.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	if totalOps < 200 {
		t.Fatalf("script produced %d durability ops, want >= 200 for a meaningful matrix", totalOps)
	}
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
	if got := len(ref.DeployedApps()); got != 22 { // 26 submitted - 4 removed
		t.Fatalf("reference deployed %d LRAs, want 22", got)
	}

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
	ref, totalOps, err := h.Reference(journal.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	refFP := Fingerprint(ref)

	points := []int{1, 2, totalOps / 4, totalOps / 2, 3 * totalOps / 4, totalOps}
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

// TestCrashPointDeterminism: the reference run is bit-stable — same op
// count, same fingerprint — across executions, the property the whole
// matrix rests on (ops 1..k-1 of a crashed run must equal the
// reference's prefix for kill point k to mean anything).
func TestCrashPointDeterminism(t *testing.T) {
	h := crashHarness()
	m1, ops1, err := h.Reference(journal.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	m2, ops2, err := h.Reference(journal.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	if ops1 != ops2 {
		t.Fatalf("op counts differ across runs: %d vs %d", ops1, ops2)
	}
	if Fingerprint(m1) != Fingerprint(m2) {
		t.Fatal("reference fingerprints differ across runs")
	}
}
