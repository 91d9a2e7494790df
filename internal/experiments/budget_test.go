package experiments

import (
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/core"
	"medea/internal/lra"
	"medea/internal/resource"
	"medea/internal/sim"
)

// TestFig7SolverBudgetAdherence drives the Figure-7 workload shape under
// a tight SolverBudget and asserts the end-to-end deadline promise: no
// cycle's solver time exceeds the budget by more than one pivot/node
// check granularity (plus CI scheduling noise), and quality degrades
// gracefully — cycles keep placing (best incumbent or warm-start greedy)
// rather than coming back empty while feasible placements exist.
func TestFig7SolverBudgetAdherence(t *testing.T) {
	o := tiny()
	o.SolverBudget = 50 * time.Millisecond
	// The deadline is checked every 32 simplex pivots / every B&B node;
	// that granularity is microseconds of work, the rest of the margin
	// absorbs model-build time and loaded-CI scheduling noise.
	margin := 300 * time.Millisecond

	nodes := o.scaled(400, 60)
	c := cluster.Grid(nodes, 40, resource.New(131072, 32))
	preloadTasks(c, 0.5, o.Seed)
	apps := append(tfBatch(o.scaled(45, 6), "tfb"), hbaseBatch(o.scaled(50, 7), "hbb")...)

	m := core.New(c, lra.NewILP(), core.Config{SolverBudget: o.SolverBudget, MaxRetries: 1})
	now := sim.Epoch
	for i := 0; i < len(apps); i += 2 {
		end := i + 2
		if end > len(apps) {
			end = len(apps)
		}
		for _, a := range apps[i:end] {
			if err := m.SubmitLRA(a, now); err != nil {
				t.Fatalf("submit %s: %v", a.ID, err)
			}
		}
		stats := m.RunCycle(now)
		if stats.AlgLatency > o.SolverBudget+margin {
			t.Fatalf("cycle %d: solver took %v, budget %v (+%v margin)",
				i/2, stats.AlgLatency, o.SolverBudget, margin)
		}
		if stats.Batch > 0 && stats.Placed == 0 {
			t.Fatalf("cycle %d: empty cycle under budget pressure: %+v", i/2, stats)
		}
		now = now.Add(10 * time.Second)
	}
	if m.DeployedLRAs() != len(apps) {
		t.Fatalf("deployed %d of %d LRAs", m.DeployedLRAs(), len(apps))
	}
}
