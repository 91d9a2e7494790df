package core

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/lra"
	"medea/internal/resource"
)

// stateRecorder wraps an algorithm and records the cluster each Place is
// handed, the solver budget it is given and the latency it reports.
type stateRecorder struct {
	lra.Algorithm
	states    []*cluster.Cluster
	budgets   []time.Duration
	latencies []time.Duration
}

func (r *stateRecorder) Place(state *cluster.Cluster, apps []*lra.Application, active []constraint.Entry, opts lra.Options) *lra.Result {
	r.states = append(r.states, state)
	r.budgets = append(r.budgets, opts.SolverBudget)
	res := r.Algorithm.Place(state, apps, active, opts)
	r.latencies = append(r.latencies, res.Latency)
	return res
}

// handed returns the clusters recorded since the last call and forgets
// them.
func (r *stateRecorder) handed() []*cluster.Cluster {
	out := r.states
	r.states = nil
	return out
}

// TestOneComponentPlacesOnLiveCluster: a cycle whose batch is one
// constraint component, and a repair, hand Place m.Cluster itself — no
// clone is made — and get it back as it was.
func TestOneComponentPlacesOnLiveCluster(t *testing.T) {
	rec := &stateRecorder{Algorithm: lra.NewNodeCandidates()}
	m := newMedea(rec, Config{Interval: time.Second})
	_ = m.SubmitLRA(app("a1", 4, "hb"), t0)
	_ = m.SubmitLRA(app("a2", 2, "hb"), t0) // shares a1's tag: one component
	if stats := m.RunCycle(t0); stats.Placed != 2 {
		t.Fatalf("cycle: %+v", stats)
	}
	if got := rec.handed(); len(got) != 1 || got[0] != m.Cluster {
		t.Fatalf("a one-component cycle handed Place %d clusters %p, want only m.Cluster %p", len(got), got, m.Cluster)
	}

	ids, _ := m.Deployed("a1")
	node, _ := m.Cluster.ContainerNode(ids[0])
	t1 := t0.Add(time.Minute)
	m.FailNode(node, t1)
	if stats := m.RunCycle(t1.Add(2 * time.Second)); stats.Repaired == 0 {
		t.Fatalf("repair cycle: %+v", stats)
	}
	if got := rec.handed(); len(got) == 0 || slices.ContainsFunc(got, func(c *cluster.Cluster) bool { return c != m.Cluster }) {
		t.Fatalf("a repair handed Place %p, want only m.Cluster %p", got, m.Cluster)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// wideApp is one LRA of the two-component fixture: four containers of 6
// of a node's 8 cores, spread one per node.
func wideApp(i int) *lra.Application {
	id := fmt.Sprintf("wide-%d", i)
	self := constraint.E(constraint.AppIDTag(id))
	return &lra.Application{
		ID: id,
		Groups: []lra.ContainerGroup{{
			Name: "w", Count: 4, Demand: resource.New(1024, 6),
			Tags: []constraint.Tag{constraint.Tag(fmt.Sprintf("wide%d", i))},
		}},
		Constraints: []constraint.Constraint{constraint.New(constraint.AntiAffinity(self, self, constraint.Node))},
	}
}

// TestComponentsPlanOnPreCycleState: a cycle of two constraint components
// places as if each component had a fresh clone of the pre-cycle state:
// both pick the same four nodes, which hold one container each, so the
// second application meets the first at validation and is requeued. A
// component that saw the other's placement would spread to the free
// nodes instead. Medea-NC and Medea-ILP alike hand both Places
// m.Cluster itself, one after the other, and clone nothing. The outcome
// is the same at GOMAXPROCS 1 and 2.
func TestComponentsPlanOnPreCycleState(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, newAlg := range []func() lra.Algorithm{lra.NewNodeCandidates, lra.NewILP} {
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			name := fmt.Sprintf("%s, GOMAXPROCS %d", newAlg().Name(), procs)
			rec := &stateRecorder{Algorithm: newAlg()}
			m := New(cluster.Grid(8, 4, resource.New(8192, 8)), rec, Config{Interval: time.Second})
			apps := []*lra.Application{wideApp(0), wideApp(1)}
			var want []lra.Placement
			for _, a := range apps {
				res := newAlg().Place(m.Cluster.Clone(), []*lra.Application{a}, nil, lra.Options{})
				want = append(want, res.Placements...)
			}
			if !slices.EqualFunc(want[0].Assignments, want[1].Assignments, func(a, b lra.Assignment) bool { return a.Node == b.Node }) {
				t.Fatalf("%s: fixture: the components pick different nodes on the pre-cycle state: %+v", name, want)
			}
			pre := m.Cluster.Clone()
			got := m.placeBatch(rec, apps, nil)
			if !reflect.DeepEqual(got.Placements, want) {
				t.Fatalf("%s: placed %+v, want each component on the pre-cycle state %+v", name, got.Placements, want)
			}
			if d := m.Cluster.Diff(pre); d != "" {
				t.Fatalf("%s: placing the batch changed the cluster: %s", name, d)
			}
			if states := rec.handed(); len(states) != 2 || states[0] != m.Cluster || states[1] != m.Cluster {
				t.Fatalf("%s: Place was handed %p, want m.Cluster %p twice", name, states, m.Cluster)
			}

			for _, a := range apps {
				_ = m.SubmitLRA(a, t0)
			}
			stats := m.RunCycle(t0)
			if stats.Placed != 1 || m.PendingLRAs() != 1 {
				t.Fatalf("%s: cycle %+v, %d pending; want one placed, one requeued", name, stats, m.PendingLRAs())
			}
			for _, asg := range want[0].Assignments {
				if n, _ := m.Cluster.ContainerNode(asg.Container); n != asg.Node {
					t.Errorf("%s: %s on node %d, want %d", name, asg.Container, n, asg.Node)
				}
			}
			if got := rec.handed(); len(got) != 2 {
				t.Fatalf("%s: the cycle called Place %d times, want 2", name, len(got))
			}
		}
	}
}

// TestComponentsGetFullBudgetAndSumLatency: each component of a
// two-component Medea-ILP cycle is handed the configured SolverBudget
// whole, and since the components run one after the other, the cycle's
// algorithm latency is the sum of theirs. The injected clock advances a
// millisecond at every read, so every Place reports a latency of its
// own.
func TestComponentsGetFullBudgetAndSumLatency(t *testing.T) {
	const budget = 250 * time.Millisecond
	now := t0
	clock := func() time.Time {
		now = now.Add(time.Millisecond)
		return now
	}
	rec := &stateRecorder{Algorithm: lra.NewILP()}
	m := New(cluster.Grid(8, 4, resource.New(8192, 8)), rec, Config{
		Interval: time.Second, SolverBudget: budget, Clock: clock,
	})
	for _, a := range []*lra.Application{spreadApp(0), spreadApp(1)} {
		if err := m.SubmitLRA(a, t0); err != nil {
			t.Fatal(err)
		}
	}
	stats := m.RunCycle(t0)
	if stats.Placed != 2 {
		t.Fatalf("cycle: %+v", stats)
	}
	if len(rec.budgets) != 2 || rec.budgets[0] != budget || rec.budgets[1] != budget {
		t.Fatalf("the components were handed budgets %v, want %v each", rec.budgets, budget)
	}
	var sum time.Duration
	for _, l := range rec.latencies {
		if l <= 0 {
			t.Fatalf("component latencies %v: the clock did not advance", rec.latencies)
		}
		sum += l
	}
	if stats.AlgLatency != sum {
		t.Fatalf("cycle latency %v, want the sum of the components' %v = %v", stats.AlgLatency, rec.latencies, sum)
	}
}
