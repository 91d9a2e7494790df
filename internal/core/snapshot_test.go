package core

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/lra"
	"medea/internal/resource"
)

// stateRecorder wraps an algorithm and records the cluster each Place is
// handed.
type stateRecorder struct {
	lra.Algorithm
	mu     sync.Mutex
	states []*cluster.Cluster
}

func (r *stateRecorder) Place(state *cluster.Cluster, apps []*lra.Application, active []constraint.Entry, opts lra.Options) *lra.Result {
	r.mu.Lock()
	r.states = append(r.states, state)
	r.mu.Unlock()
	return r.Algorithm.Place(state, apps, active, opts)
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
// nodes instead. Medea-NC hands both Places m.Cluster itself, one after
// the other, and clones nothing; Medea-ILP, behind the same embedding
// recorder, hands one m.Cluster and the other a clone of its own. The
// outcome is the same at GOMAXPROCS 1 and 2.
func TestComponentsPlanOnPreCycleState(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		alg    func() lra.Algorithm
		clones int
	}{
		{lra.NewNodeCandidates, 0},
		{lra.NewILP, 1},
	} {
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			name := fmt.Sprintf("%s, GOMAXPROCS %d", tc.alg().Name(), procs)
			rec := &stateRecorder{Algorithm: tc.alg()}
			m := New(cluster.Grid(8, 4, resource.New(8192, 8)), rec, Config{Interval: time.Second})
			apps := []*lra.Application{wideApp(0), wideApp(1)}
			var want []lra.Placement
			for _, a := range apps {
				res := tc.alg().Place(m.Cluster.Clone(), []*lra.Application{a}, nil, lra.Options{})
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
			states := rec.handed()
			live := 0
			for _, st := range states {
				if st == m.Cluster {
					live++
				}
			}
			if len(states) != 2 || live != 2-tc.clones {
				t.Fatalf("%s: Place was handed %p, want m.Cluster %p and %d clones", name, states, m.Cluster, tc.clones)
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
