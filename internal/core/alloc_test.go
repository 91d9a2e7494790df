package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/lra"
	"medea/internal/resource"
)

// cycleMaxAllocs caps one 12-LRA cycle of TestRunCycleAllocCap, about 6%
// above the most it was measured at: 13,970 at one P, 14,050 at two, and
// up to 14,680 under -race. The cycle scores ~2,400 candidate nodes, so one
// allocation per scored candidate fails here; so does validating each
// placement on a clone of its own (the cycle validates the batch on one
// scratch clone), and so does a Place that builds its three candidate
// placements on three clones (20,000: it builds them on one). Allocation
// counts do not depend on the host, so the cap is an exact wall.
const cycleMaxAllocs = 15500

// spreadApp is one LRA of the cycle fixture: four containers that must
// spread across nodes, tagged per app, so the partition sees twelve
// independent components and places them concurrently.
func spreadApp(i int) *lra.Application {
	id := fmt.Sprintf("svc-%02d", i)
	self := constraint.E(constraint.AppIDTag(id))
	return &lra.Application{
		ID: id,
		Groups: []lra.ContainerGroup{{
			Name: "w", Count: 4, Demand: resource.New(200, 4),
			Tags: []constraint.Tag{constraint.Tag(fmt.Sprintf("t%d", i))},
		}},
		Constraints: []constraint.Constraint{
			constraint.New(constraint.AntiAffinity(self, self, constraint.Node)),
		},
	}
}

// TestRunCycleAllocCap holds one scheduling cycle — a 64-node grid built,
// twelve spreadApps submitted, one RunCycle on the ILP — to
// cycleMaxAllocs, at GOMAXPROCS 1 and at the host's CPU count. It counts
// the second of two runs, from runtime.MemStats.
func TestRunCycleAllocCap(t *testing.T) {
	cycle := func() {
		m := New(cluster.Grid(64, 4, resource.New(4000, 64)), lra.NewILP(), Config{
			Interval:     time.Second,
			SolverBudget: 30 * time.Second,
		})
		for a := 0; a < 12; a++ {
			if err := m.SubmitLRA(spreadApp(a), t0); err != nil {
				t.Fatal(err)
			}
		}
		if stats := m.RunCycle(t0.Add(time.Second)); stats.Placed != 12 {
			t.Fatalf("cycle placed %d/12", stats.Placed)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		cycle()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cycle()
		runtime.ReadMemStats(&after)
		allocs := after.Mallocs - before.Mallocs
		t.Logf("GOMAXPROCS %d: %d allocs, %d kB", procs, allocs, (after.TotalAlloc-before.TotalAlloc)>>10)
		if allocs > cycleMaxAllocs {
			t.Errorf("GOMAXPROCS %d: cycle allocated %d times, cap %d", procs, allocs, cycleMaxAllocs)
		}
	}
}
