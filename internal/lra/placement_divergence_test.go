package lra

import (
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/ilp"
	"medea/internal/resource"
)

// TestPlacementSemanticsDivergences pins, one named case each, where the
// Figure-5 model and the evaluator mean different things today (DESIGN
// §15). TestPlacementSemantics asserts its exact claims outside these;
// a change that closes one of them moves a golden and flips its case
// here, deliberately.
func TestPlacementSemanticsDivergences(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func(*testing.T)
	}{
		{"one slack for a set of deployed subjects", divergenceOneSlack},
		{"node in no set of the group", divergenceNoSet},
		{"group without sets", divergenceNoSets},
		{"DNF: one term per constraint, not per container", divergenceDNFPerContainer},
		{"DNF: a term that does not apply still binds", divergenceDNFIdleTerm},
		{"per-set slack, per-container score", divergencePerSetSlack},
	} {
		t.Run(c.name, c.run)
	}
}

// The cases' small vocabulary: a two-node rack, a one-container
// application, a deployed container, "the container goes on node n".

func twoNodes() *cluster.Cluster { return cluster.Grid(2, 2, resource.New(4096, 4)) }

func oneContainer(id string, tags ...constraint.Tag) *Application {
	return &Application{ID: id, Groups: []ContainerGroup{{Name: "g", Count: 1, Demand: resource.New(1024, 1), Tags: tags}}}
}

func deployOn(t *testing.T, c *cluster.Cluster, node cluster.NodeID, id string, tags ...constraint.Tag) {
	t.Helper()
	if err := c.Allocate(node, cluster.ContainerID(id), resource.New(1024, 1), tags); err != nil {
		t.Fatal(err)
	}
}

// onNode places the single container of a one-group batch on node n.
func onNode(in *tinyInstance, n int) tinyPlacement {
	counts := make([]int, len(in.nodes))
	counts[n] = 1
	return tinyPlacement{placed: []bool{true}, counts: [][]int{counts}}
}

// verdicts returns what the model and the evaluator say of p: slack
// free, clean under the model's one-term reading, and the violated
// pairs evaluateResolved counts on the instance's own list.
func verdicts(t *testing.T, in *tinyInstance, p tinyPlacement) (slackFree, clean bool, violated int) {
	t.Helper()
	pm, sol := in.pinned(buildModel, p)
	if sol.Status != ilp.Optimal {
		t.Fatalf("pinned model solves to %v", sol.Status)
	}
	work, _ := in.apply(p)
	return sol.Objective > -1e-9, in.evaluatorClean(pm, work), evaluateResolved(work, in.cons).Violated
}

// Two deployed s in one rack, one of them a t itself, each want
// two t around them. The ecmin row is as tight as the tighter of
// the two needs — never wrong about zero — but its one slack is
// that subject's shortfall, where the evaluator adds up both.
func divergenceOneSlack(t *testing.T) {
	c := twoNodes()
	deployOn(t, c, 0, "d#0", "s", "t")
	deployOn(t, c, 1, "d#1", "s")
	active := entries(constraint.New(constraint.CardinalityRange(constraint.E("s"), constraint.E("t"), 2, constraint.Unbounded, constraint.Rack)))
	in := tinyInstanceOf(c, []*Application{oneContainer("new", "t")}, active)
	unplaced := tinyPlacement{placed: []bool{false}, counts: [][]int{{0, 0}}}
	pm, sol := in.pinned(buildModel, unplaced)
	if len(pm.slacks) != 1 || sol.Value(pm.slacks[0].v) != 2 {
		t.Fatalf("slacks %d, first %v; want the one ecmin slack at 2", len(pm.slacks), sol.Value(pm.slacks[0].v))
	}
	// Slack 2 of bound 2 is extent 1, d#0's; d#1 adds 0.5.
	if rep := evaluateResolved(c, in.cons); rep.TotalExtent != 1.5 || rep.Violated != 2 {
		t.Fatalf("evaluator: extent %v over %d pairs, want 1.5 over 2", rep.TotalExtent, rep.Violated)
	}
	for n := range in.nodes {
		if free, clean, _ := verdicts(t, in, onNode(in, n)); free || clean {
			t.Fatalf("one more t on node %d: slack-free=%v clean=%v, want both false (d#0 still sees one)", n, free, clean)
		}
	}
}

// a wants a b in its fault domain; node 1 is in none. The model
// has no row there; the evaluator counts an empty set.
func divergenceNoSet(t *testing.T) {
	c := twoNodes()
	if err := c.RegisterGroup(constraint.FaultDomain, [][]cluster.NodeID{{0}}); err != nil {
		t.Fatal(err)
	}
	deployOn(t, c, 0, "d#0", "b")
	app := oneContainer("new", "a")
	app.Constraints = []constraint.Constraint{constraint.New(constraint.Affinity(constraint.E("a"), constraint.E("b"), constraint.FaultDomain))}
	in := tinyInstanceOf(c, []*Application{app}, nil)
	if free, clean, _ := verdicts(t, in, onNode(in, 0)); !free || !clean {
		t.Fatalf("inside the domain: slack-free=%v clean=%v, want both", free, clean)
	}
	if free, clean, _ := verdicts(t, in, onNode(in, 1)); !free || clean {
		t.Fatalf("outside every set: slack-free=%v clean=%v, want true and false", free, clean)
	}
}

// The same over a group nobody registered: unconstrained in the
// model, violated affinity for the evaluator, wherever a goes.
func divergenceNoSets(t *testing.T) {
	c := twoNodes()
	deployOn(t, c, 0, "d#0", "b")
	app := oneContainer("new", "a")
	app.Constraints = []constraint.Constraint{constraint.New(constraint.Affinity(constraint.E("a"), constraint.E("b"), "nowhere"))}
	in := tinyInstanceOf(c, []*Application{app}, nil)
	for n := range in.nodes {
		if free, clean, _ := verdicts(t, in, onNode(in, n)); !free || clean {
			t.Fatalf("node %d: slack-free=%v clean=%v, want true and false", n, free, clean)
		}
	}
}

// Each a wants an x or a y on its node. One a beside x and one
// beside y satisfy the evaluator, which takes the best term per
// container; the model binds one term for the whole constraint.
func divergenceDNFPerContainer(t *testing.T) {
	c := twoNodes()
	deployOn(t, c, 0, "d#0", "x")
	deployOn(t, c, 1, "d#1", "y")
	app := &Application{ID: "new", Groups: []ContainerGroup{{Name: "g", Count: 2, Demand: resource.New(1024, 1), Tags: []constraint.Tag{"a"}}}}
	app.Constraints = []constraint.Constraint{or(
		[]constraint.Atom{constraint.Affinity(constraint.E("a"), constraint.E("x"), constraint.Node)},
		[]constraint.Atom{constraint.Affinity(constraint.E("a"), constraint.E("y"), constraint.Node)})}
	in := tinyInstanceOf(c, []*Application{app}, nil)
	split := tinyPlacement{placed: []bool{true}, counts: [][]int{{1, 1}}}
	if free, clean, violated := verdicts(t, in, split); free || clean || violated != 0 {
		t.Fatalf("one a per node: slack-free=%v, clean under one term=%v, evaluateResolved violated=%d; want false, false, 0", free, clean, violated)
	}
}

// a wants an x on its node, or else b stays under five x. The
// second term says nothing about a, so the evaluator holds a to
// the first; the model may bind the second and charge nothing.
func divergenceDNFIdleTerm(t *testing.T) {
	c := twoNodes()
	deployOn(t, c, 0, "d#0", "x")
	app := oneContainer("new", "a")
	app.Constraints = []constraint.Constraint{or(
		[]constraint.Atom{constraint.Affinity(constraint.E("a"), constraint.E("x"), constraint.Node)},
		[]constraint.Atom{constraint.MaxCardinality(constraint.E("b"), constraint.E("x"), 5, constraint.Node)})}
	in := tinyInstanceOf(c, []*Application{app}, nil)
	if free, clean, violated := verdicts(t, in, onNode(in, 1)); !free || !clean || violated != 1 {
		t.Fatalf("a away from x: slack-free=%v, clean under one term=%v, evaluateResolved violated=%d; want true, true, 1", free, clean, violated)
	}
}

// No c may share a zone with a. a only fits nodes 0–2, all in
// zone 0; node 3, outside it, has room for one c. So one c must
// sit in zone 0 — and the model charges zone 0 once for the group
// whether one c is there or both, while the score counts each.
// Place returns both in zone 0; Medea-NC, which is not part of
// Place's fallback, finds the better placement.
func divergencePerSetSlack(t *testing.T) {
	c := cluster.Grid(4, 2, resource.New(4096, 4))
	if err := c.RegisterGroup("zone", [][]cluster.NodeID{{0, 1, 2}, {1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Allocate(3, "fill#0", resource.New(3072, 2), nil); err != nil {
		t.Fatal(err)
	}
	app := &Application{ID: "new", Groups: []ContainerGroup{
		{Name: "g0", Count: 2, Demand: resource.New(1024, 1), Tags: []constraint.Tag{"c"}},
		{Name: "g1", Count: 1, Demand: resource.New(2048, 1), Tags: []constraint.Tag{"a", "b"}},
	}, Constraints: []constraint.Constraint{constraint.New(constraint.AntiAffinity(constraint.E("c"), constraint.E("a"), "zone"))}}
	apps := []*Application{app}
	opts := Options{Weights: Weights{W1: 1, W2: 0.5}, SolverBudget: 250 * time.Millisecond, Clock: tickingClock(time.Millisecond)}
	got := NewILP().Place(c, apps, nil, opts)
	place := oracleScore(c, apps, nil, got)
	flat := flattenConstraints(apps, nil)
	res, work := NewNodeCandidates().(*greedy).placeOnClone(c, apps, flat)
	if nc := placementScore(work, flat, res); got.DeadlineHit || !(nc > place) {
		t.Fatalf("Medea-NC scores %v, Place %v (deadline %v); want Medea-NC above a finished Place", nc, place, got.DeadlineHit)
	}
}
