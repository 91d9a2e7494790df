package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/core"
	"medea/internal/lra"
	"medea/internal/sim"
)

// tiny returns options small enough that each experiment runs in well
// under a second, exercising every code path.
func tiny() Options {
	return Options{Seed: 7, Scale: 0.12, SolverBudget: 150 * time.Millisecond}
}

func TestRunFig1(t *testing.T) {
	tab := RunFig1(tiny())
	if tab.NumRows() != 6 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	// Two clusters are fully dedicated to LRAs.
	rows := tab.Rows()
	if rows[4][2] != "100.00" || rows[5][2] != "100.00" {
		t.Errorf("C5/C6 should be 100%%: %v %v", rows[4][2], rows[5][2])
	}
}

func TestRunFig2a(t *testing.T) {
	tab := RunFig2a(tiny())
	if tab.NumRows() != 3 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	// MEDEA (intra-inter) must have the lowest mean latency.
	rows := tab.Rows()
	var yarn, intra, both float64
	for _, pair := range []struct {
		cell string
		dst  *float64
	}{{rows[0][1], &yarn}, {rows[1][1], &intra}, {rows[2][1], &both}} {
		if _, err := fmtSscan(pair.cell, pair.dst); err != nil {
			t.Fatalf("bad cell %q", pair.cell)
		}
	}
	if !(both < yarn && both < intra) {
		t.Errorf("intra-inter not fastest: %v", rows)
	}
}

func TestRunFig2b(t *testing.T) {
	tab := RunFig2b(tiny())
	if tab.NumRows() != 6 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	// MEDEA (anti-affinity) beats YARN on every workload.
	for _, row := range tab.Rows() {
		if row[3] <= row[1] {
			t.Errorf("workload %s: MEDEA %s <= YARN %s", row[0], row[3], row[1])
		}
	}
}

func TestRunFig2cd(t *testing.T) {
	for name, tab := range map[string]interface{ Rows() [][]string }{
		"2c": RunFig2c(tiny()), "2d": RunFig2d(tiny()),
	} {
		rows := tab.Rows()
		if len(rows) != 5 {
			t.Fatalf("%s rows = %d", name, len(rows))
		}
		for _, r := range rows {
			if r[1] == "unplaced" || r[2] == "unplaced" {
				t.Errorf("%s cap %s: unplaced", name, r[0])
			}
		}
	}
}

func TestRunFig3(t *testing.T) {
	tab := RunFig3(tiny())
	if tab.NumRows() < 10 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
}

func TestRunTable1(t *testing.T) {
	tab := RunTable1(tiny())
	if tab.NumRows() != 9 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	last := tab.Rows()[8]
	if last[0] != "Medea" {
		t.Fatalf("last row = %v", last)
	}
	for _, cell := range last[1:] {
		if cell != "yes" {
			t.Errorf("Medea must support everything: %v", last)
		}
	}
}

func TestRunFig7(t *testing.T) {
	res := RunFig7(tiny())
	for _, tab := range res.Tables() {
		if tab.NumRows() != 4 {
			t.Fatalf("%s rows = %d", tab.Title, tab.NumRows())
		}
	}
	// GridMix runtimes must be similar across schedulers (within 15%):
	// the two-scheduler design leaves the task path alone (Fig 7d).
	var medians []float64
	for _, row := range res.GridMix.Rows() {
		var v float64
		if _, err := fmtSscan(row[3], &v); err != nil {
			t.Fatalf("bad median %q", row[3])
		}
		medians = append(medians, v)
	}
	lo, hi := medians[0], medians[0]
	for _, v := range medians {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi > lo*1.15 {
		t.Errorf("GridMix medians diverge: %v", medians)
	}
}

func TestRunFig8(t *testing.T) {
	tab := RunFig8(tiny())
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	rows := tab.Rows()
	// Medea's worst-case unavailability must not exceed J-Kube's.
	if rows[0][5] > rows[1][5] {
		t.Errorf("Medea max %s > J-Kube max %s", rows[0][5], rows[1][5])
	}
}

func TestRunFig9aOrdering(t *testing.T) {
	tab := RunFig9a(tiny())
	if tab.NumRows() != 5 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	// Medea-ILP must not violate more than the constraint-weakest
	// baseline (J-Kube) anywhere. Per-batch the ILP never does worse than
	// its greedy warm start, but trajectories can diverge across cycles,
	// so an exact per-row dominance over Serial is not guaranteed.
	for _, row := range tab.Rows() {
		var ilp, jkube float64
		if _, err := fmtSscan(row[1], &ilp); err != nil {
			t.Fatal(err)
		}
		if _, err := fmtSscan(row[4], &jkube); err != nil {
			t.Fatal(err)
		}
		if ilp > jkube+1e-9 {
			t.Errorf("util %s: ILP %.2f > J-Kube %.2f", row[0], ilp, jkube)
		}
	}
}

func TestRunFig9d(t *testing.T) {
	tab := RunFig9d(tiny())
	if tab.NumRows() != 6 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
}

func TestRunFig10(t *testing.T) {
	res := RunFig10(tiny())
	if res.Fragmentation.NumRows() != 5 || res.LoadBalance.NumRows() != 5 {
		t.Fatal("fig10 rows")
	}
}

func TestRunFig11a(t *testing.T) {
	tab := RunFig11a(tiny())
	if tab.NumRows() == 0 {
		t.Fatal("no rows")
	}
}

func TestRunFig11b(t *testing.T) {
	tab := RunFig11b(tiny())
	if tab.NumRows() != 5 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	// ILP-ALL must be slower overall: at high services fractions the task
	// share shrinks and the two designs converge, so compare the totals.
	// (The per-row low-services contrast the paper reports is no longer
	// resolvable at this test's tiny scale: the arena-backed solver puts
	// both designs' per-cycle latency within measurement noise there.)
	var mdTotal, allTotal float64
	for _, row := range tab.Rows() {
		var md, all float64
		if _, err := fmtSscan(row[1], &md); err != nil {
			t.Fatal(err)
		}
		if _, err := fmtSscan(row[2], &all); err != nil {
			t.Fatal(err)
		}
		mdTotal += md
		allTotal += all
	}
	if allTotal <= mdTotal {
		t.Errorf("ILP-ALL total %.2f not slower than MEDEA total %.2f", allTotal, mdTotal)
	}
}

// TestSubmitTaskJob: Figure 11b's task load reaches the task-based
// scheduler under MEDEA, and under ILP-ALL becomes one constraint-free
// LRA per job, named by the run's counter, that the solver places.
func TestSubmitTaskJob(t *testing.T) {
	const per = 3
	for _, ilpAll := range []bool{false, true} {
		m := core.New(cluster.Grid(4, 2, SimNodeCapacity), lra.NewILP(), core.Config{})
		seq := 0
		if err := submitTaskJob(m, ilpAll, &seq, "job0", per, sim.Epoch); err != nil {
			t.Fatal(err)
		}
		if err := submitTaskJob(m, ilpAll, &seq, "job2", per, sim.Epoch); err != nil {
			t.Fatal(err)
		}
		wantLRAs, wantTasks := 0, 2*per
		if ilpAll {
			wantLRAs, wantTasks = 2, 0
		}
		if got := m.PendingLRAs(); got != wantLRAs {
			t.Errorf("ilpAll=%v: pending LRAs = %d, want %d", ilpAll, got, wantLRAs)
		}
		if got := m.Tasks.Pending(); got != wantTasks {
			t.Errorf("ilpAll=%v: pending tasks = %d, want %d", ilpAll, got, wantTasks)
		}
		if !ilpAll {
			continue
		}
		if seq != 2 {
			t.Errorf("seq = %d, want 2", seq)
		}
		m.RunCycle(sim.Epoch)
		for _, id := range []string{"job0-task1", "job2-task2"} {
			if ids, ok := m.Deployed(id); !ok || len(ids) != per {
				t.Errorf("%s deployed = %v (ok=%v), want %d containers", id, ids, ok, per)
			}
		}
	}
}

func TestRunFig11c(t *testing.T) {
	tab := RunFig11c(tiny())
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	for _, row := range tab.Rows() {
		if strings.Contains(row[1], "-") || row[1] == "0" {
			t.Errorf("no tasks scheduled: %v", row)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := RunFig9d(tiny()).String()
	b := RunFig9d(tiny()).String()
	if a != b {
		t.Error("experiment not deterministic for equal options")
	}
}

func TestScaledFloor(t *testing.T) {
	o := Options{Scale: 0.1}.withDefaults()
	if got := o.scaled(500, 80); got != 80 {
		t.Errorf("scaled floor = %d", got)
	}
	if got := o.scaled(500, 10); got != 50 {
		t.Errorf("scaled = %d", got)
	}
}

func TestRunFig8Live(t *testing.T) {
	tab := RunFig8Live(tiny())
	if tab.NumRows() != 2 {
		t.Fatalf("rows = %d", tab.NumRows())
	}
	var depthMax []float64
	for _, row := range tab.Rows() {
		var evicted, repaired, abandoned float64
		if _, err := fmtSscan(row[1], &evicted); err != nil {
			t.Fatal(err)
		}
		if _, err := fmtSscan(row[2], &repaired); err != nil {
			t.Fatal(err)
		}
		if _, err := fmtSscan(row[3], &abandoned); err != nil {
			t.Fatal(err)
		}
		if evicted == 0 {
			t.Errorf("%s: trace replay evicted nothing", row[0])
		}
		if repaired+abandoned == 0 || repaired > evicted {
			t.Errorf("%s: repair accounting evicted=%v repaired=%v abandoned=%v", row[0], evicted, repaired, abandoned)
		}
		if row[4] == "0s" {
			t.Errorf("%s: zero MTTR — churn aligned with cycle boundaries?", row[0])
		}
		var p50, p90, worst float64
		for i, dst := range []*float64{&p50, &p90, &worst} {
			if _, err := fmtSscan(row[8+i], dst); err != nil {
				t.Fatal(err)
			}
		}
		if !(0 <= p50 && p50 <= p90 && p90 <= worst && worst <= 100) || worst == 0 {
			t.Errorf("%s: depth p50/p90/max = %v/%v/%v, want ordered in (0, 100]", row[0], p50, p90, worst)
		}
		depthMax = append(depthMax, worst)
	}
	// Figure 8's ordering, read live: the per-SU cardinality cap keeps
	// Medea's deepest outage shallower than J-Kube's.
	if depthMax[0] >= depthMax[1] {
		t.Errorf("depth max: %s %v%%, %s %v%%; want Medea shallower", tab.Rows()[0][0], depthMax[0], tab.Rows()[1][0], depthMax[1])
	}
	// The live replay must be deterministic too. Only the J-Kube row is
	// compared: the ILP row depends on a wall-clock solver budget, which
	// may truncate the search at a different point between runs (notably
	// under -race).
	a, b := RunFig8Live(tiny()), RunFig8Live(tiny())
	if ra, rb := fmt.Sprint(a.Rows()[1]), fmt.Sprint(b.Rows()[1]); ra != rb {
		t.Errorf("live experiment not deterministic for equal options:\n%s\n%s", ra, rb)
	}
}
