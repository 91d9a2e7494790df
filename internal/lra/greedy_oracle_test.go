package lra

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/resource"
)

// The from-scratch scorers the score table replaced, kept as its oracle:
// they rescan every node on every call and share nothing with the table
// but placementDeltaMode itself.

// countCandidates returns Nc: the number of fitting nodes on which the
// container creates no new violation.
func countCandidates(work *cluster.Cluster, cons []constraint.Entry, r containerReq) int {
	clean := 0
	for _, n := range work.Nodes() {
		if !n.Available() || !r.demand.Fits(n.Free()) {
			continue
		}
		if placementDelta(work, cons, r.tags, n.ID) <= 1e-12 {
			clean++
		}
	}
	return clean
}

// oracleScores scores every node for one container from scratch.
func (g *greedy) oracleScores(work *cluster.Cluster, cons []constraint.Entry, r containerReq) []nodeScore {
	scores := make([]nodeScore, work.NumNodes())
	for i, n := range work.Nodes() {
		if !n.Available() || !r.demand.Fits(n.Free()) {
			continue
		}
		delta := placementDeltaMode(work, cons, r.tags, n.ID, g.subjectOnly)
		if g.affinityPull > 0 {
			delta -= g.affinityPull * affinityPopulation(work, cons, r.tags, n.ID)
		}
		util := n.Used().Add(r.demand).DominantShare(n.Capacity)
		if g.loadBalanceWeight > 0 {
			delta += g.loadBalanceWeight * util
		}
		scores[i] = nodeScore{ok: true, delta: delta, util: util}
	}
	return scores
}

// oracleBestNode is the full-rescan node choice.
func (g *greedy) oracleBestNode(work *cluster.Cluster, cons []constraint.Entry, r containerReq) (cluster.NodeID, bool) {
	bestID := cluster.NodeID(-1)
	bestDelta, bestUtil := 0.0, 0.0
	for i, s := range g.oracleScores(work, cons, r) {
		if !s.ok {
			continue
		}
		if bestID < 0 || s.delta < bestDelta-1e-12 ||
			(s.delta < bestDelta+1e-12 && s.util < bestUtil-1e-12) {
			bestID, bestDelta, bestUtil = cluster.NodeID(i), s.delta, s.util
		}
	}
	return bestID, bestID >= 0
}

// oraclePlace is the greedy engine as it was before the table: per
// container Nc, refreshed by a full recount for every scope-sharing
// unplaced container after each placement, and a full rescan per node
// choice.
func (g *greedy) oraclePlace(state *cluster.Cluster, apps []*Application, active []constraint.Entry) []Placement {
	work := state.Clone()
	cons := g.filterEntries(flattenConstraints(apps, active))
	var queue []containerReq
	for _, rs := range buildRequests(apps) {
		queue = append(queue, rs...)
	}
	if g.order == orderTP {
		sort.SliceStable(queue, func(a, b int) bool {
			return tagPopularity(cons, queue[a].tags) > tagPopularity(cons, queue[b].tags)
		})
	}
	rel := func(r containerReq) []constraint.Entry { return relevantEntries(cons, r.tags) }
	failed := make([]bool, len(apps))
	placedBy := make([][]Assignment, len(apps))
	nc := make([]int, len(queue))
	if g.order == orderNC {
		for i := range queue {
			nc[i] = countCandidates(work, rel(queue[i]), queue[i])
		}
	}
	done := make([]bool, len(queue))
	for range queue {
		sel := -1
		for i := range queue {
			if done[i] || failed[queue[i].appIdx] {
				continue
			}
			if g.order != orderNC {
				sel = i
				break
			}
			if sel < 0 || nc[i] < nc[sel] {
				sel = i
			}
		}
		if sel < 0 {
			break
		}
		r := queue[sel]
		done[sel] = true
		node, ok := g.oracleBestNode(work, rel(r), r)
		if !ok {
			failed[r.appIdx] = true
			for _, a := range placedBy[r.appIdx] {
				if err := work.Release(a.Container); err != nil {
					panic(err)
				}
			}
			placedBy[r.appIdx] = nil
			continue
		}
		if err := work.Allocate(node, r.id, r.demand, r.tags); err != nil {
			panic(err)
		}
		placedBy[r.appIdx] = append(placedBy[r.appIdx], Assignment{
			Container: r.id, Group: r.group, Node: node, Demand: r.demand, Tags: r.tags,
		})
		if g.order == orderNC {
			for i := range queue {
				if !done[i] && !failed[queue[i].appIdx] && sharesConstraintScope(cons, r.tags, queue[i].tags) {
					nc[i] = countCandidates(work, rel(queue[i]), queue[i])
				}
			}
		}
	}
	var out []Placement
	for ai, app := range apps {
		p := Placement{AppID: app.ID, Placed: !failed[ai] && len(placedBy[ai]) == app.NumContainers()}
		if p.Placed {
			p.Assignments = placedBy[ai]
		}
		out = append(out, p)
	}
	return out
}

// scoringVariants are the greedy configurations that score nodes (YARN's
// first-fit does not).
func scoringVariants() []*greedy {
	return []*greedy{
		NewNodeCandidates().(*greedy),
		NewTagPopularity().(*greedy),
		NewSerial().(*greedy),
		NewJKube().(*greedy),
		NewJKubePlusPlus().(*greedy),
	}
}

// oracleCluster builds a small cluster whose groups exercise every shape
// the invalidation rule has to get right: racks that partition the nodes,
// overlapping zones, a fault-domain group that leaves some nodes in no
// set, static tags, and nodes that are down or draining.
func oracleCluster(rng *rand.Rand) *cluster.Cluster {
	const n = 24
	c := cluster.Grid(n, 4, resource.New(8192, 8))
	var zones [][]cluster.NodeID
	for start := 0; start < n; start += 6 {
		var z []cluster.NodeID
		for i := start; i < start+9 && i < n; i++ { // 9 wide, 6 apart: neighbours overlap by 3
			z = append(z, cluster.NodeID(i))
		}
		zones = append(zones, z)
	}
	if err := c.RegisterGroup("zone", zones); err != nil {
		panic(err)
	}
	if err := c.RegisterGroup(constraint.FaultDomain, [][]cluster.NodeID{{0, 1, 2, 3, 4}, {10, 11, 12}}); err != nil {
		panic(err)
	}
	c.AddStaticTags(cluster.NodeID(rng.Intn(n)), "gpu")
	c.AddStaticTags(cluster.NodeID(rng.Intn(n)), "gpu")
	c.SetAvailable(cluster.NodeID(rng.Intn(n)), false)
	c.DrainNode(cluster.NodeID(rng.Intn(n)))
	return c
}

var (
	oracleTags   = []constraint.Tag{"a", "b", "c", "gpu"}
	oracleGroups = []constraint.GroupName{constraint.Node, constraint.Rack, "zone", constraint.FaultDomain, "nowhere"}
)

func randomAtom(rng *rand.Rand, appTags []constraint.Tag) constraint.Atom {
	expr := func() constraint.Expr {
		e := constraint.E(oracleTags[rng.Intn(len(oracleTags))])
		if rng.Intn(3) == 0 {
			e = append(e, appTags[rng.Intn(len(appTags))])
		}
		return e
	}
	subject, target := expr(), expr()
	if rng.Intn(3) == 0 {
		target = subject // self-targeting
	}
	group := oracleGroups[rng.Intn(len(oracleGroups))]
	switch rng.Intn(4) {
	case 0:
		return constraint.Affinity(subject, target, group)
	case 1:
		return constraint.AntiAffinity(subject, target, group)
	case 2:
		return constraint.MaxCardinality(subject, target, 1+rng.Intn(3), group)
	default:
		return constraint.CardinalityRange(subject, target, 1, 2+rng.Intn(3), group)
	}
}

// oracleBatch draws applications with one to three container groups
// (some sharing a tag vector at different demands) and simple, weighted
// and DNF-compound constraints over them and the deployed containers.
func oracleBatch(rng *rand.Rand, prefix string, n int) []*Application {
	apps := make([]*Application, n)
	appTags := make([]constraint.Tag, n)
	for i := range apps {
		appTags[i] = constraint.AppIDTag(fmt.Sprintf("%s%d", prefix, i))
	}
	for i := range apps {
		app := &Application{ID: fmt.Sprintf("%s%d", prefix, i)}
		for gi := 0; gi <= rng.Intn(3); gi++ {
			tags := []constraint.Tag{oracleTags[rng.Intn(3)]}
			if rng.Intn(2) == 0 {
				tags = append(tags, oracleTags[rng.Intn(3)])
			}
			app.Groups = append(app.Groups, ContainerGroup{
				Name: fmt.Sprintf("g%d", gi), Count: 1 + rng.Intn(3),
				Demand: resource.New(int64(512*(1+rng.Intn(3))), int64(1+rng.Intn(2))), Tags: tags,
			})
		}
		for ci := 0; ci <= rng.Intn(3); ci++ {
			var c constraint.Constraint
			switch rng.Intn(3) {
			case 0:
				c = constraint.New(randomAtom(rng, appTags))
			case 1:
				c = constraint.Weighted(randomAtom(rng, appTags), float64(1+rng.Intn(5))/2)
			default:
				c = constraint.Or(
					[]constraint.Atom{randomAtom(rng, appTags), randomAtom(rng, appTags)},
					[]constraint.Atom{randomAtom(rng, appTags)})
			}
			app.Constraints = append(app.Constraints, c)
		}
		apps[i] = app
	}
	return apps
}

// deployBatch commits a placed batch to the state and returns its
// constraints as active entries.
func deployBatch(t *testing.T, c *cluster.Cluster, apps []*Application, placements []Placement) []constraint.Entry {
	t.Helper()
	var active []constraint.Entry
	for i, p := range placements {
		if !p.Placed {
			continue
		}
		for _, a := range p.Assignments {
			if err := c.Allocate(a.Node, a.Container, a.Demand, a.Tags); err != nil {
				t.Fatal(err)
			}
		}
		for _, con := range apps[i].Constraints {
			active = append(active, constraint.Entry{AppID: apps[i].ID, Source: constraint.SourceApplication, Constraint: con})
		}
	}
	return active
}

// fillNearlyFull leaves a core or two per node, so applications fail
// half way.
func fillNearlyFull(t *testing.T, rng *rand.Rand, state *cluster.Cluster) {
	t.Helper()
	for _, n := range state.Nodes() {
		if free := n.Free(); free.VCores > 2 {
			fill := resource.New(free.MemoryMB/2, free.VCores-1-int64(rng.Intn(2)))
			if err := state.Allocate(n.ID, cluster.MakeContainerID("fill", int(n.ID)), fill, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// checkTable compares every cell, every clean count and every node
// choice of the table with the oracle. Floats must be bit-identical: the
// table caches scores, it never computes one differently.
func checkTable(t *testing.T, step string, g *greedy, tab *scoreTable, queue []containerReq, classOf []int) {
	t.Helper()
	seen := map[int]bool{}
	for qi, r := range queue {
		ci := classOf[qi]
		if seen[ci] {
			continue
		}
		seen[ci] = true
		c := &tab.classes[ci]
		want := g.oracleScores(tab.work, c.cons, r)
		clean := 0
		for ni, w := range want {
			if got := c.scores[ni]; got != w {
				t.Fatalf("%s: %s class %d (%v %v) node %d: table %+v, oracle %+v", step, g.name, ci, c.tags, c.demand, ni, got, w)
			}
			if w.clean() {
				clean++
			}
		}
		if c.clean != clean {
			t.Fatalf("%s: %s class %d: clean %d, oracle %d", step, g.name, ci, c.clean, clean)
		}
		if g.order == orderNC {
			if nc := countCandidates(tab.work, c.cons, r); c.clean != nc {
				t.Fatalf("%s: class %d: clean %d, countCandidates %d", step, ci, c.clean, nc)
			}
		}
		gotNode, gotOK := tab.best(ci)
		wantNode, wantOK := g.oracleBestNode(tab.work, c.cons, r)
		if gotNode != wantNode || gotOK != wantOK {
			t.Fatalf("%s: %s class %d: best %d/%v, oracle %d/%v", step, g.name, ci, gotNode, gotOK, wantNode, wantOK)
		}
	}
}

// TestScoreTableMatchesOracle drives the table through seeded random
// allocate / release / whole-application rollback sequences and checks it
// against a from-scratch rescoring after every single step.
func TestScoreTableMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		state := oracleCluster(rng)
		deployed := oracleBatch(rng, "dep", 4)
		active := deployBatch(t, state, deployed, NewSerial().(*greedy).oraclePlace(state, deployed, nil))
		apps := oracleBatch(rng, "new", 4)
		for _, g := range scoringVariants() {
			work := state.Clone()
			cons := g.filterEntries(flattenConstraints(apps, active))
			var queue []containerReq
			for _, rs := range buildRequests(apps) {
				queue = append(queue, rs...)
			}
			tab, classOf := newScoreTable(g, work, cons, queue)
			checkTable(t, fmt.Sprintf("seed %d fill", seed), g, tab, queue, classOf)

			placed := map[int]cluster.NodeID{} // queue index -> node
			for step := 0; step < 60; step++ {
				name := fmt.Sprintf("seed %d step %d", seed, step)
				switch op := rng.Intn(5); {
				case op <= 2: // allocate an unplaced container where the table says it fits
					qi := rng.Intn(len(queue))
					if _, dup := placed[qi]; dup {
						continue
					}
					var fits []cluster.NodeID
					for ni, s := range tab.classes[classOf[qi]].scores {
						if s.ok {
							fits = append(fits, cluster.NodeID(ni))
						}
					}
					if len(fits) == 0 {
						continue
					}
					node := fits[rng.Intn(len(fits))]
					if err := work.Allocate(node, queue[qi].id, queue[qi].demand, queue[qi].tags); err != nil {
						t.Fatalf("%s: table says %d fits: %v", name, node, err)
					}
					placed[qi] = node
					tab.touched(node)
				default: // release one container, or roll a whole application back
					if len(placed) == 0 {
						continue
					}
					var held []int
					for qi := range placed {
						held = append(held, qi)
					}
					sort.Ints(held)
					victim := held[rng.Intn(len(held))]
					for _, qi := range held {
						if qi != victim && (op == 3 || queue[qi].appIdx != queue[victim].appIdx) {
							continue
						}
						if err := work.Release(queue[qi].id); err != nil {
							t.Fatal(err)
						}
						tab.touched(placed[qi])
						delete(placed, qi)
					}
				}
				checkTable(t, name, g, tab, queue, classOf)
			}
		}
	}
}

// TestGreedyPlaceMatchesOracle checks whole placements: every scoring
// variant must return exactly what the full-rescan engine returns,
// including Medea-NC's order under stale Nc values and rollbacks on a
// cluster too full for the whole batch.
func TestGreedyPlaceMatchesOracle(t *testing.T) {
	rolledBack := 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		state := oracleCluster(rng)
		deployed := oracleBatch(rng, "dep", 3+rng.Intn(6))
		active := deployBatch(t, state, deployed, NewSerial().(*greedy).oraclePlace(state, deployed, nil))
		if seed%2 == 0 {
			fillNearlyFull(t, rng, state)
		}
		apps := oracleBatch(rng, "new", 2+rng.Intn(8))
		for _, g := range scoringVariants() {
			want := g.oraclePlace(state, apps, active)
			got := g.Place(state, apps, active, Options{}).Placements
			for i := range want {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("seed %d %s:\n table  %+v\n oracle %+v", seed, g.name, got[i], want[i])
				}
				if !want[i].Placed {
					rolledBack++
				}
			}
		}
	}
	if rolledBack == 0 {
		t.Error("no seed exercised an all-or-nothing rollback")
	}
}
