package lra

import (
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/resource"
)

// TestILPDNFConstraint: a compound constraint (node-affinity OR
// rack-affinity) is satisfiable through its second term; the ILP must not
// report or create violations.
func TestILPDNFConstraint(t *testing.T) {
	c := grid(8, 4)
	// Fill node 3 except 1 GB so node-level collocation with "mem" (on
	// node 3) is impossible, but rack-level still works.
	mustAlloc(t, c, 3, "m#0", "mem")
	if err := c.Allocate(3, "fill#0", resource.New(14336, 6), nil); err != nil {
		t.Fatal(err)
	}
	dnf := constraint.Or(
		[]constraint.Atom{constraint.Affinity(constraint.E("s"), constraint.E("mem"), constraint.Node)},
		[]constraint.Atom{constraint.Affinity(constraint.E("s"), constraint.E("mem"), constraint.Rack)},
	)
	app := workerApp("storm", 2, "s")
	app.Constraints = []constraint.Constraint{dnf}
	res := NewILP().Place(c, []*Application{app}, nil, Options{})
	if res.PlacedApps() != 1 {
		t.Fatal("unplaced")
	}
	applyResult(t, c, res)
	rep := Evaluate(c, entries(dnf))
	if rep.ViolatedContainers != 0 {
		t.Errorf("DNF violations = %d", rep.ViolatedContainers)
	}
	// The satisfied term must be the rack one: containers on rack 0 but
	// not on node 3 (full).
	for _, a := range res.Placements[0].Assignments {
		if a.Node == 3 {
			t.Errorf("container on the full node %d", a.Node)
		}
		if sets := c.SetsOfNode(constraint.Rack, a.Node); len(sets) != 1 || sets[0] != 0 {
			t.Errorf("container off the mem rack: node %d", a.Node)
		}
	}
}

// TestILPMaxCandidatesOption: a tiny explicit candidate budget still
// yields a valid placement (the warm-start nodes are force-included).
func TestILPMaxCandidatesOption(t *testing.T) {
	c := grid(16, 4)
	app := workerApp("a", 6, "w")
	app.Constraints = []constraint.Constraint{
		constraint.New(constraint.AntiAffinity(constraint.E("w"), constraint.E("w"), constraint.Node)),
	}
	res := NewILP().Place(c, []*Application{app}, nil, Options{MaxCandidates: 2})
	if res.PlacedApps() != 1 {
		t.Fatal("unplaced with tiny candidate budget")
	}
	applyResult(t, c, res)
	rep := Evaluate(c, entries(app.Constraints[0]))
	if rep.ViolatedContainers != 0 {
		t.Errorf("violations = %d", rep.ViolatedContainers)
	}
}

// TestILPCustomWeights: with w2 large, violations are avoided even when
// w1 pressure would otherwise accept them; the knob must at least not
// break placement.
func TestILPCustomWeights(t *testing.T) {
	c := grid(8, 4)
	app := workerApp("a", 4, "w")
	app.Constraints = []constraint.Constraint{
		constraint.New(constraint.MaxCardinality(constraint.E("w"), constraint.E("w"), 0, constraint.Node)),
	}
	opts := Options{Weights: Weights{W1: 1, W2: 5, W3: 0.1}}
	res := NewILP().Place(c, []*Application{app}, nil, opts)
	if res.PlacedApps() != 1 {
		t.Fatal("unplaced")
	}
	applyResult(t, c, res)
	rep := Evaluate(c, entries(app.Constraints[0]))
	if rep.ViolatedContainers != 0 {
		t.Errorf("violations = %d", rep.ViolatedContainers)
	}
}

// TestILPOperatorOverride: a stricter operator constraint overrides the
// application's (ResolveConflicts path through the ILP).
func TestILPOperatorOverride(t *testing.T) {
	c := grid(8, 4)
	app := workerApp("a", 4, "w")
	// App allows up to 3 others per node; operator allows only 1.
	app.Constraints = []constraint.Constraint{
		constraint.New(constraint.MaxCardinality(constraint.E("w"), constraint.E("w"), 3, constraint.Node)),
	}
	op := []constraint.Entry{{
		Source:     constraint.SourceOperator,
		Constraint: constraint.New(constraint.MaxCardinality(constraint.E("w"), constraint.E("w"), 1, constraint.Node)),
	}}
	res := NewILP().Place(c, []*Application{app}, op, Options{})
	if res.PlacedApps() != 1 {
		t.Fatal("unplaced")
	}
	perNode := map[cluster.NodeID]int{}
	for _, a := range res.Placements[0].Assignments {
		perNode[a.Node]++
	}
	for n, cnt := range perNode {
		if cnt > 2 { // cap 1 other => at most 2 per node
			t.Errorf("node %d has %d workers; operator cap ignored", n, cnt)
		}
	}
}

// TestILPWarmStartDominance: for a batch where the greedy heuristic finds
// a clean placement, the ILP result must be at least as clean.
func TestILPWarmStartDominance(t *testing.T) {
	for seed := 0; seed < 3; seed++ {
		c := grid(12, 4)
		// Partially fill some nodes to desymmetrise.
		for i := 0; i <= seed; i++ {
			if err := c.Allocate(cluster.NodeID(i), cluster.MakeContainerID("bg", i), resource.New(4096, 2), nil); err != nil {
				t.Fatal(err)
			}
		}
		appA := workerApp("A", 4, "x")
		appA.Constraints = []constraint.Constraint{
			constraint.New(constraint.MaxCardinality(constraint.E("x"), constraint.E("x"), 1, constraint.Node)),
		}
		appB := workerApp("B", 4, "y")
		appB.Constraints = []constraint.Constraint{
			constraint.New(constraint.AntiAffinity(constraint.E("y"), constraint.E("x"), constraint.Node)),
		}
		apps := []*Application{appA, appB}

		ilpC := c.Clone()
		ilpRes := NewILP().Place(ilpC, apps, nil, Options{SolverBudget: time.Second})
		applyResult(t, ilpC, ilpRes)
		ilpRep := Evaluate(ilpC, entries(appA.Constraints[0], appB.Constraints[0]))

		gC := c.Clone()
		gRes, _ := newBestOfGreedy().placeBest(gC, apps, flattenConstraints(apps, nil), Options{})
		applyResult(t, gC, gRes)
		gRep := Evaluate(gC, entries(appA.Constraints[0], appB.Constraints[0]))

		if ilpRes.PlacedApps() < gRes.PlacedApps() {
			t.Errorf("seed %d: ILP placed %d < greedy %d", seed, ilpRes.PlacedApps(), gRes.PlacedApps())
		}
		if ilpRes.PlacedApps() == gRes.PlacedApps() && ilpRep.TotalExtent > gRep.TotalExtent+1e-9 {
			t.Errorf("seed %d: ILP extent %v > greedy %v", seed, ilpRep.TotalExtent, gRep.TotalExtent)
		}
	}
}

// TestILPLatencyRecorded: the result carries a positive wall-clock latency.
func TestILPLatencyRecorded(t *testing.T) {
	c := grid(8, 4)
	res := NewILP().Place(c, []*Application{workerApp("a", 2, "w")}, nil, Options{})
	if res.Latency <= 0 {
		t.Errorf("latency = %v", res.Latency)
	}
}

// TestBestOfGreedyPicksCleaner: construct a case where TP and Serial
// differ and the combinator picks the cleaner result.
func TestBestOfGreedyPicksCleaner(t *testing.T) {
	c := cluster.Grid(3, 3, resource.New(4096, 4))
	c.AddStaticTags(0, "gpu")
	filler := workerApp("fill", 4, "f")
	picky := workerApp("picky", 2, "p")
	picky.Constraints = []constraint.Constraint{
		constraint.New(constraint.Affinity(constraint.E("p"), constraint.E("gpu"), constraint.Node)),
	}
	apps := []*Application{filler, picky}
	res, _ := newBestOfGreedy().placeBest(c, apps, flattenConstraints(apps, nil), Options{})
	applyResult(t, c, res)
	rep := Evaluate(c, entries(picky.Constraints[0]))
	if res.PlacedApps() != 2 || rep.ViolatedContainers != 0 {
		t.Errorf("best-of picked a poor result: placed=%d violations=%d", res.PlacedApps(), rep.ViolatedContainers)
	}
}

// TestILPDuplicateGroupNames: an application whose two groups share a
// name cannot be told apart in a remembered placement, so replay treats
// it as unplaced — in the greedy warm start and across cycles alike —
// and the solver places it anyway; its neighbour keeps its warm start.
func TestILPDuplicateGroupNames(t *testing.T) {
	c := grid(8, 4)
	twin := &Application{ID: "twin", Groups: []ContainerGroup{
		{Name: "w", Count: 2, Demand: resource.New(2048, 1), Tags: []constraint.Tag{"x"}},
		{Name: "w", Count: 1, Demand: resource.New(1024, 1), Tags: []constraint.Tag{"y"}},
	}}
	apps := []*Application{twin, workerApp("plain", 3, "z")}
	s := NewILP().(*ilpScheduler)
	for cycle := 0; cycle < 2; cycle++ {
		s.BeginCycle()
		res := s.Place(c, apps, nil, Options{})
		if res.PlacedApps() != 2 || len(res.Placements[0].Assignments) != 3 {
			t.Fatalf("cycle %d: placed %d apps, twin has %d containers", cycle, res.PlacedApps(), len(res.Placements[0].Assignments))
		}
	}
	pm := buildModel(c, apps, nil, batchGroups(apps), allCandidates(c, batchGroups(apps)), DefaultWeights())
	warm, _ := pm.replay(apps, s.memory)
	if warm[pm.S[0]] != 0 || warm[pm.S[1]] != 1 {
		t.Fatalf("replay: S(twin)=%v S(plain)=%v, want 0 and 1", warm[pm.S[0]], warm[pm.S[1]])
	}
}
