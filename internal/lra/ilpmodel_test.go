package lra

import (
	"strings"
	"testing"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/resource"
)

// allCandidates materialises every node as a candidate of every group:
// what the model means is then not a question of which nodes
// selectCandidates happened to keep.
func allCandidates(state *cluster.Cluster, groups []mgroup) [][]cluster.NodeID {
	cands := make([][]cluster.NodeID, len(groups))
	for gi := range groups {
		for _, n := range state.Nodes() {
			cands[gi] = append(cands[gi], n.ID)
		}
	}
	return cands
}

// buildFull is buildModel over all candidates: no fallback, no solver,
// no clock.
func buildFull(state *cluster.Cluster, apps []*Application, active []constraint.Entry, w Weights) *placementModel {
	groups := batchGroups(apps)
	return buildModel(state, apps, flattenConstraints(apps, active), groups, allCandidates(state, groups), w)
}

// TestBuildModelGolden pins the Figure-5 model buildModel emits — every
// variable with bounds and objective coefficient, every row with sense,
// right-hand side and terms, in emission order — for three fixtures on a
// four-node, two-rack cluster: the self-covered max-cardinality template
// (no activation binaries), a DNF compound (selectors and big-M
// relaxation), and deployed subjects whose constraints the batch can
// break (the ec* rows), the last without the balance term. A change to a
// row family, a big-M or the variable order shows up as a diff of
// testdata/model.golden. Refresh with
// `go test -run TestBuildModelGolden -update ./internal/lra/`.
func TestBuildModelGolden(t *testing.T) {
	var b strings.Builder
	dump := func(name string, pm *placementModel) {
		if err := pm.m.Check(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b.WriteString("== " + name + "\n" + pm.m.String())
	}

	// At most one other worker per node, one already there; node 3 has
	// room for one container only.
	c := cluster.Grid(4, 2, resource.New(8192, 4))
	mustAlloc(t, c, 0, "old#0", "w")
	if err := c.Allocate(3, "fill#0", resource.New(6144, 3), nil); err != nil {
		t.Fatal(err)
	}
	app := workerApp("hb", 3, "w")
	app.Constraints = []constraint.Constraint{
		constraint.New(constraint.MaxCardinality(constraint.E("w"), constraint.E("w"), 1, constraint.Node)),
	}
	dump("self-covered max-cardinality", buildFull(c, []*Application{app}, nil, DefaultWeights()))

	// Next to mem on its node, or else in its rack; weighted.
	c = cluster.Grid(4, 2, resource.New(8192, 4))
	mustAlloc(t, c, 1, "m#0", "mem")
	app = workerApp("storm", 2, "s")
	app.Constraints = []constraint.Constraint{constraint.Or(
		[]constraint.Atom{constraint.Affinity(constraint.E("s"), constraint.E("mem"), constraint.Node)},
		[]constraint.Atom{constraint.Affinity(constraint.E("s"), constraint.E("mem"), constraint.Rack)},
	)}
	app.Constraints[0].Weight = 2.5
	dump("DNF compound", buildFull(c, []*Application{app}, nil, DefaultWeights()))

	// Two deployed mem containers each want one or two s in their rack;
	// the batch brings s, which in turn avoids mem's node, and a second
	// application of two groups.
	c = cluster.Grid(4, 2, resource.New(8192, 4))
	mustAlloc(t, c, 0, "mc#0", "mem")
	mustAlloc(t, c, 2, "mc#1", "mem", "s")
	active := []constraint.Entry{{AppID: "mc", Source: constraint.SourceApplication,
		Constraint: constraint.New(constraint.CardinalityRange(constraint.E("mem"), constraint.E("s"), 1, 2, constraint.Rack))}}
	app = workerApp("storm", 2, "s")
	app.Constraints = []constraint.Constraint{
		constraint.New(constraint.AntiAffinity(constraint.E("s"), constraint.E("mem"), constraint.Node)),
	}
	other := &Application{ID: "tf", Groups: []ContainerGroup{
		{Name: "ps", Count: 1, Demand: resource.New(4096, 2), Tags: []constraint.Tag{"ps"}},
		{Name: "wk", Count: 2, Demand: resource.New(1024, 1), Tags: []constraint.Tag{"s"}},
	}}
	dump("deployed subjects", buildFull(c, []*Application{app, other}, active, Weights{W1: 1, W2: 0.5, W3: 0.25}))

	compareGolden(t, "model.golden", b.String())
}
