package lra

import (
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/resource"
)

func workerApp(id string, count int, tags ...constraint.Tag) *Application {
	return &Application{
		ID:     id,
		Groups: []ContainerGroup{{Name: "worker", Count: count, Demand: resource.New(2048, 1), Tags: tags}},
	}
}

// applyResult allocates a result's assignments onto the cluster, as the
// task-based scheduler would.
func applyResult(t *testing.T, c *cluster.Cluster, res *Result) {
	t.Helper()
	for _, p := range res.Placements {
		if !p.Placed {
			continue
		}
		for _, a := range p.Assignments {
			if err := c.Allocate(a.Node, a.Container, a.Demand, a.Tags); err != nil {
				t.Fatalf("apply %s: %v", a.Container, err)
			}
		}
	}
}

func allAlgorithms() []Algorithm {
	return []Algorithm{NewILP(), NewNodeCandidates(), NewTagPopularity(), NewSerial(), NewJKube(), NewJKubePlusPlus()}
}

func TestBuildRequests(t *testing.T) {
	app := &Application{
		ID: "hb-1",
		Groups: []ContainerGroup{
			{Name: "master", Count: 1, Demand: resource.New(1024, 1), Tags: []constraint.Tag{"hb", "hb_m"}},
			{Name: "rs", Count: 2, Demand: resource.New(2048, 1), Tags: []constraint.Tag{"hb", "hb_rs"}},
		},
	}
	reqs := buildRequests([]*Application{app})
	if len(reqs[0]) != 3 {
		t.Fatalf("requests = %d, want 3", len(reqs[0]))
	}
	if reqs[0][0].id != "hb-1#0" || reqs[0][2].id != "hb-1#2" {
		t.Errorf("IDs = %v, %v", reqs[0][0].id, reqs[0][2].id)
	}
	// Automatic appID tag (footnote 5).
	want := constraint.AppIDTag("hb-1")
	found := false
	for _, tag := range reqs[0][0].tags {
		if tag == want {
			found = true
		}
	}
	if !found {
		t.Errorf("appID tag missing: %v", reqs[0][0].tags)
	}
}

func TestApplicationValidate(t *testing.T) {
	good := workerApp("a", 2, "t")
	if err := good.Validate(); err != nil {
		t.Errorf("valid app rejected: %v", err)
	}
	bad := []*Application{
		{ID: "", Groups: []ContainerGroup{{Count: 1, Demand: resource.New(1, 1)}}},
		{ID: "x"},
		{ID: "x", Groups: []ContainerGroup{{Count: 0, Demand: resource.New(1, 1)}}},
		{ID: "x", Groups: []ContainerGroup{{Count: 1}}},
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("bad app %d accepted", i)
		}
	}
}

// TestAllPlaceBasic: every algorithm places a constraint-free app fully.
func TestAllPlaceBasic(t *testing.T) {
	for _, alg := range allAlgorithms() {
		c := grid(8, 4)
		res := alg.Place(c, []*Application{workerApp("a", 5, "w")}, nil, Options{})
		if res.PlacedApps() != 1 {
			t.Errorf("%s: placed %d apps, want 1", alg.Name(), res.PlacedApps())
			continue
		}
		applyResult(t, c, res)
		if got := c.NumContainers(); got != 5 {
			t.Errorf("%s: %d containers, want 5", alg.Name(), got)
		}
	}
}

// TestAllRespectAntiAffinity: with per-node self anti-affinity, every
// algorithm spreads the containers (feasible: 5 containers, 8 nodes).
func TestAllRespectAntiAffinity(t *testing.T) {
	con := constraint.New(constraint.AntiAffinity(constraint.E("w"), constraint.E("w"), constraint.Node))
	for _, alg := range allAlgorithms() {
		c := grid(8, 4)
		app := workerApp("a", 5, "w")
		app.Constraints = []constraint.Constraint{con}
		res := alg.Place(c, []*Application{app}, nil, Options{})
		if res.PlacedApps() != 1 {
			t.Errorf("%s: unplaced", alg.Name())
			continue
		}
		applyResult(t, c, res)
		rep := Evaluate(c, entries(con))
		if rep.ViolatedContainers != 0 {
			t.Errorf("%s: %d violations, want 0", alg.Name(), rep.ViolatedContainers)
		}
	}
}

// TestAllRespectAffinity: node affinity to an existing memcached container.
func TestAllRespectAffinity(t *testing.T) {
	con := constraint.New(constraint.Affinity(constraint.E("storm"), constraint.E("mem"), constraint.Node))
	for _, alg := range allAlgorithms() {
		c := grid(8, 4)
		mustAlloc(t, c, 3, "m#0", "mem")
		app := workerApp("s", 2, "storm")
		app.Constraints = []constraint.Constraint{con}
		res := alg.Place(c, []*Application{app}, nil, Options{})
		if res.PlacedApps() != 1 {
			t.Errorf("%s: unplaced", alg.Name())
			continue
		}
		for _, a := range res.Placements[0].Assignments {
			if a.Node != 3 {
				t.Errorf("%s: container on node %d, want 3 (with mem)", alg.Name(), a.Node)
			}
		}
	}
}

// TestCardinalitySupportSplit: a max-2-per-node cardinality constraint is
// honoured by everything except J-Kube, which drops it (§7.1).
func TestCardinalitySupportSplit(t *testing.T) {
	con := constraint.New(constraint.MaxCardinality(constraint.E("w"), constraint.E("w"), 1, constraint.Node))
	for _, alg := range allAlgorithms() {
		c := grid(8, 4)
		app := workerApp("a", 6, "w") // max 1 other per node -> ≤2 per node
		app.Constraints = []constraint.Constraint{con}
		res := alg.Place(c, []*Application{app}, nil, Options{})
		if res.PlacedApps() != 1 {
			t.Errorf("%s: unplaced", alg.Name())
			continue
		}
		applyResult(t, c, res)
		rep := Evaluate(c, entries(con))
		if alg.Name() == "J-Kube" {
			continue // no cardinality support; violations possible
		}
		if rep.ViolatedContainers != 0 {
			t.Errorf("%s: %d cardinality violations, want 0", alg.Name(), rep.ViolatedContainers)
		}
	}
}

// TestAllOrNothing: when capacity cannot hold all containers, no partial
// placement leaks out (Equation 4).
func TestAllOrNothing(t *testing.T) {
	for _, alg := range allAlgorithms() {
		c := cluster.Grid(2, 2, resource.New(4096, 4))
		app := workerApp("big", 8, "w") // needs 16 GB; cluster has 8 GB
		res := alg.Place(c, []*Application{app}, nil, Options{})
		if res.PlacedApps() != 0 {
			t.Errorf("%s: impossible app placed", alg.Name())
		}
		for _, p := range res.Placements {
			if len(p.Assignments) != 0 {
				t.Errorf("%s: partial assignments leaked", alg.Name())
			}
		}
	}
}

// TestAllOrNothingPartialBatch: one of two apps fits; it must be placed
// while the oversized one is rejected.
func TestAllOrNothingPartialBatch(t *testing.T) {
	for _, alg := range allAlgorithms() {
		c := cluster.Grid(2, 2, resource.New(8192, 8))
		small := workerApp("small", 2, "s")
		big := workerApp("big", 20, "b")
		res := alg.Place(c, []*Application{big, small}, nil, Options{})
		placed := map[string]bool{}
		for _, p := range res.Placements {
			placed[p.AppID] = p.Placed
		}
		if !placed["small"] || placed["big"] {
			t.Errorf("%s: placed=%v, want small only", alg.Name(), placed)
		}
	}
}

// TestILPBeatsOneAtATime reproduces the §7.4 insight in miniature:
// considering multiple LRAs at once satisfies inter-application
// constraints that one-at-a-time scheduling tends to violate. App A wants
// node anti-affinity with B's containers; A is submitted first. A serial
// scheduler places A anywhere (B not yet placed), then B can collide.
// Here: 2 nodes, each fits 2 containers; A has 2 containers, B has 2
// containers, and B must avoid A per node. Feasible only as A:{n0,n0},
// B:{n1,n1} (or swapped) — grouping A together is required, which greedy
// load-balancing refuses but the ILP finds.
func TestILPBeatsOneAtATime(t *testing.T) {
	build := func() (*cluster.Cluster, []*Application, constraint.Constraint) {
		c := cluster.Grid(2, 2, resource.New(4096, 4))
		con := constraint.New(constraint.AntiAffinity(constraint.E("b"), constraint.E("a"), constraint.Node))
		appA := workerApp("A", 2, "a")
		appB := workerApp("B", 2, "b")
		appB.Constraints = []constraint.Constraint{con}
		return c, []*Application{appA, appB}, con
	}

	c, apps, con := build()
	res := NewILP().Place(c, apps, nil, Options{})
	if res.PlacedApps() != 2 {
		t.Fatalf("ILP placed %d apps, want 2", res.PlacedApps())
	}
	applyResult(t, c, res)
	rep := Evaluate(c, entries(con))
	if rep.ViolatedContainers != 0 {
		t.Errorf("ILP: %d violations, want 0", rep.ViolatedContainers)
	}

	// J-Kube (one at a time, load-balancing) violates here.
	c2, apps2, con2 := build()
	res2 := NewJKube().Place(c2, apps2, nil, Options{})
	applyResult(t, c2, res2)
	rep2 := Evaluate(c2, entries(con2))
	if res2.PlacedApps() == 2 && rep2.ViolatedContainers == 0 {
		t.Error("J-Kube unexpectedly matched ILP quality; scenario no longer discriminates")
	}
}

// TestILPRackAffinity: intra-app rack affinity (the §7.1 template
// "all workers of the same instance on the same rack").
func TestILPRackAffinity(t *testing.T) {
	con := constraint.New(constraint.CardinalityRange(
		constraint.E("w", "appID:a"), constraint.E("w", "appID:a"), 0, constraint.Unbounded, constraint.Rack))
	// Rack affinity expressed as in the paper: every worker in a rack with
	// at least one other worker of the same app.
	aff := constraint.New(constraint.Affinity(constraint.E("w", "appID:a"), constraint.E("w", "appID:a"), constraint.Rack))
	_ = con
	c := grid(8, 4)
	app := workerApp("a", 4, "w")
	app.Constraints = []constraint.Constraint{aff}
	res := NewILP().Place(c, []*Application{app}, nil, Options{})
	if res.PlacedApps() != 1 {
		t.Fatal("unplaced")
	}
	racks := map[cluster.SetID]bool{}
	for _, a := range res.Placements[0].Assignments {
		for _, sid := range c.SetsOfNode(constraint.Rack, a.Node) {
			racks[sid] = true
		}
	}
	if len(racks) != 1 {
		t.Errorf("workers span %d racks, want 1", len(racks))
	}
}

// TestILPHonoursDeployedConstraints: placing a new app must not violate
// the anti-affinity constraint of an already deployed app.
func TestILPHonoursDeployedConstraints(t *testing.T) {
	c := cluster.Grid(4, 2, resource.New(4096, 4))
	// Deployed app "old" with one container on node 0 wants no "new"
	// containers on its node.
	mustAlloc(t, c, 0, "old#0", "old")
	deployed := []constraint.Entry{{
		AppID: "old", Source: constraint.SourceApplication,
		Constraint: constraint.New(constraint.AntiAffinity(constraint.E("old"), constraint.E("new"), constraint.Node)),
	}}
	app := workerApp("n", 3, "new")
	res := NewILP().Place(c, []*Application{app}, deployed, Options{})
	if res.PlacedApps() != 1 {
		t.Fatal("unplaced")
	}
	for _, a := range res.Placements[0].Assignments {
		if a.Node == 0 {
			t.Errorf("new container on node 0 violates deployed anti-affinity")
		}
	}
}

func TestILPFallbackOnTinyBudget(t *testing.T) {
	c := grid(8, 4)
	app := workerApp("a", 4, "w")
	app.Constraints = []constraint.Constraint{
		constraint.New(constraint.AntiAffinity(constraint.E("w"), constraint.E("w"), constraint.Node)),
	}
	res := NewILP().Place(c, []*Application{app}, nil, Options{SolverBudget: time.Nanosecond})
	// Must still return a usable placement (via incumbent or fallback).
	if res.PlacedApps() != 1 {
		t.Errorf("placed %d, want 1 via fallback", res.PlacedApps())
	}
}

func TestILPEmptyBatch(t *testing.T) {
	c := grid(4, 4)
	res := NewILP().Place(c, nil, nil, Options{})
	if len(res.Placements) != 0 {
		t.Errorf("placements = %d, want 0", len(res.Placements))
	}
}

// TestNCOrderingHelps constructs the classic case: container X can only go
// on node 0 (affinity to its "gpu" attribute container), fillers can go
// anywhere. Serial places fillers first (submission order) and may fill
// node 0; NC places X first. With node capacity 2 and X submitted last,
// Serial violates or fails; NC succeeds cleanly.
func TestNCOrderingHelps(t *testing.T) {
	build := func() *cluster.Cluster {
		c := cluster.Grid(3, 3, resource.New(4096, 4))
		addAttribute(c, 0, "gpu")
		return c
	}
	filler := workerApp("fill", 4, "f")
	picky := workerApp("picky", 2, "p")
	picky.Constraints = []constraint.Constraint{
		constraint.New(constraint.Affinity(constraint.E("p"), constraint.E("gpu"), constraint.Node)),
	}
	apps := func() []*Application { return []*Application{workerCopy(filler), workerCopy(picky)} }

	cNC := build()
	resNC := NewNodeCandidates().Place(cNC, apps(), nil, Options{})
	applyResult(t, cNC, resNC)
	repNC := Evaluate(cNC, entries(picky.Constraints[0]))
	if resNC.PlacedApps() != 2 || repNC.ViolatedContainers != 0 {
		t.Errorf("NC: placed=%d violations=%d, want 2,0", resNC.PlacedApps(), repNC.ViolatedContainers)
	}

	cS := build()
	resS := NewSerial().Place(cS, apps(), nil, Options{})
	applyResult(t, cS, resS)
	repS := Evaluate(cS, entries(picky.Constraints[0]))
	if resS.PlacedApps() == 2 && repS.ViolatedContainers == 0 {
		t.Error("Serial unexpectedly matched NC; scenario no longer discriminates")
	}
}

func workerCopy(a *Application) *Application {
	cp := *a
	return &cp
}

func TestTagPopularityOrdering(t *testing.T) {
	cons := entries(
		constraint.New(constraint.Affinity(constraint.E("hot"), constraint.E("x"), constraint.Node)),
		constraint.New(constraint.AntiAffinity(constraint.E("hot"), constraint.E("y"), constraint.Rack)),
	)
	hot := len(compileAtoms(nil, cons, []constraint.Tag{"hot"}))
	cold := len(compileAtoms(nil, cons, []constraint.Tag{"cold"}))
	if hot <= cold {
		t.Errorf("popularity hot=%d cold=%d", hot, cold)
	}
}

func TestAlgorithmNames(t *testing.T) {
	want := map[string]bool{
		"Medea-ILP": true, "Medea-NC": true, "Medea-TP": true,
		"Serial": true, "J-Kube": true, "J-Kube++": true,
	}
	for _, alg := range allAlgorithms() {
		if !want[alg.Name()] {
			t.Errorf("unexpected algorithm name %q", alg.Name())
		}
	}
}

// TestPlaceDoesNotMutateState: Place must leave the input cluster intact.
func TestPlaceDoesNotMutateState(t *testing.T) {
	for _, alg := range allAlgorithms() {
		c := grid(4, 4)
		before := c.NumContainers()
		_ = alg.Place(c, []*Application{workerApp("a", 3, "w")}, nil, Options{})
		if c.NumContainers() != before {
			t.Errorf("%s mutated the cluster state", alg.Name())
		}
	}
}
