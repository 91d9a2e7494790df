package lra

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/ilp"
)

// oracleScore is the scorer Place ran before it scored placements on the
// scratch cluster they were built on, kept as the oracle of
// placementScore and scoreBase.score: clone the pre-placement state,
// allocate every assignment of every placed application, flatten and
// resolve the constraints again, evaluate.
func oracleScore(state *cluster.Cluster, apps []*Application, active []constraint.Entry, res *Result) float64 {
	work := state.Clone()
	placed := 0
	for _, p := range res.Placements {
		if !p.Placed {
			continue
		}
		placed++
		for _, a := range p.Assignments {
			if err := work.Allocate(a.Node, a.Container, a.Demand, a.Tags); err != nil {
				return -1 // inconsistent result; never pick it
			}
		}
	}
	rep := Evaluate(work, flattenConstraints(apps, active))
	return float64(placed) - rep.TotalExtent/1e6
}

// placementScore is the full-sweep scorer Place ran before it priced
// placements by their delta (scoreBase): more placed apps first, then
// fewer violations. work is the cluster holding exactly the result's
// placed applications on top of the state they were planned against, and
// flat the batch's flattened constraint list.
func placementScore(work *cluster.Cluster, flat []constraint.Entry, res *Result) float64 {
	return float64(res.PlacedApps()) - evaluateResolved(work, flat).TotalExtent/1e6
}

// scoredPlacement is one placement as Place holds it when it scores it:
// the result, the scratch cluster it was built on, and the batch's
// flattened constraints — plus what the oracle needs to rebuild all that.
type scoredPlacement struct {
	name        string
	state, work *cluster.Cluster
	apps        []*Application
	active      []constraint.Entry
	flat        []constraint.Entry
	res         *Result
}

// pinnedSolution returns a solver solution for the batch through a model
// whose variables are fixed by their bounds. Mostly a container goes to a
// node with room for it, but any node (down, full, already taken by a
// sibling), a container short and S = 0 are drawn too, so
// decodeSolution's rollback runs on some applications and not on others.
func pinnedSolution(rng *rand.Rand, state *cluster.Cluster, apps []*Application) (*ilp.Solution, []ilp.Var, []map[cluster.NodeID]ilp.Var) {
	m := ilp.NewModel(ilp.Maximize)
	pin := func(v int) ilp.Var { return m.Int("pinned", float64(v), float64(v)) }
	S := make([]ilp.Var, len(apps))
	var Y []map[cluster.NodeID]ilp.Var
	for ai, app := range apps {
		S[ai] = pin(b2f(rng.Intn(20) != 0))
		for _, g := range app.Groups {
			counts := map[cluster.NodeID]int{}
			for k := 0; k < g.Count; k++ {
				for _, n := range rng.Perm(state.NumNodes()) {
					if node := state.Node(cluster.NodeID(n)); rng.Intn(40) == 0 || (node.Available() && g.Demand.Fits(node.Free())) {
						counts[node.ID]++
						break
					}
				}
			}
			y := map[cluster.NodeID]ilp.Var{}
			for _, node := range state.Nodes() { // in node order: the draws must repeat
				c, used := counts[node.ID]
				if !used {
					continue
				}
				if rng.Intn(40) == 0 {
					c-- // one container short: the application cannot be placed
				}
				y[node.ID] = pin(c)
			}
			Y = append(Y, y)
		}
	}
	return m.Solve(ilp.Options{}), S, Y
}

// oracleInstance draws from rng a cluster with deployed applications
// (nearly full if full is set, so applications fail half way), operator
// constraints that override some of the applications' own, and a batch
// with weighted and DNF constraints.
func oracleInstance(t *testing.T, rng *rand.Rand, full bool) (state *cluster.Cluster, apps []*Application, active []constraint.Entry) {
	t.Helper()
	state = oracleCluster(rng)
	deployed := oracleBatch(rng, "dep", 3+rng.Intn(6))
	active = deployBatch(t, state, deployed, NewSerial().(*greedy).oraclePlace(state, deployed, nil))
	if full {
		fillNearlyFull(t, rng, state)
	}
	apps = oracleBatch(rng, "new", 2+rng.Intn(6))
	// The operator tightens every third simple constraint it finds.
	for _, app := range append(append([]*Application(nil), deployed...), apps...) {
		for _, c := range app.Constraints {
			a, simple := c.Simple()
			if !simple || rng.Intn(3) != 0 {
				continue
			}
			switch {
			case a.Max == constraint.Unbounded:
				a.Max = a.Min + 2
			case a.Max > a.Min:
				a.Max--
			default:
				continue
			}
			active = append(active, constraint.Entry{Source: constraint.SourceOperator, Constraint: constraint.New(a)})
		}
	}
	return state, apps, active
}

// scoredPlacements draws an oracleInstance per seed, nearly full on every
// other one, and returns what Medea-TP, Serial and a decoded solver
// solution make of each.
func scoredPlacements(t *testing.T, seeds int) []scoredPlacement {
	t.Helper()
	var out []scoredPlacement
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		state, apps, active := oracleInstance(t, rng, seed%2 == 0)
		flat := flattenConstraints(apps, active)
		add := func(name string, res *Result, work *cluster.Cluster) {
			out = append(out, scoredPlacement{
				name: fmt.Sprintf("seed %d %s", seed, name), state: state, work: work,
				apps: apps, active: active, flat: flat, res: res,
			})
		}
		for _, g := range newBestOfGreedy().algs {
			res, work := g.placeOnClone(state, apps, flat)
			add(g.name, res, work)
		}
		sol, S, Y := pinnedSolution(rng, state, apps)
		work := state.Clone()
		add("decoded", decodeSolution(work, apps, buildRequests(apps), sol, S, Y), work)
	}
	return out
}

// TestPlaceScoreMatchesOracle pins the score Place commits by — the delta
// of scoreBase.score on the scratch cluster a heuristic or the solution
// decode finished on, scored first (one pass over the scratch) and after
// another candidate of the seed (a region pass on that candidate's
// pass) — and the full sweep placementScore it replaced to
// the from-scratch oracle, bit for bit, for Medea-TP, Serial and decoded
// solver solutions over seeded random clusters and batches. Then it shows
// the comparison has teeth: five mutants of the two scorers, each a bug
// moving the score onto the scratch or pricing only the delta could have
// introduced, must disagree with the oracle somewhere on the same cases.
func TestPlaceScoreMatchesOracle(t *testing.T) {
	cases := scoredPlacements(t, 200)
	var rolledBack, decodeRolledBack, decodeAllPlaced, fractional, overridden, dnf int
	oracle := make([]uint64, len(cases))
	for i, c := range cases {
		want := oracleScore(c.state, c.apps, c.active, c.res)
		// A later candidate: the seed's previous placement is scored first,
		// or, for its first, an empty result on the pre-placement state.
		later := newScoreBase(c.state, c.flat)
		if i%3 > 0 {
			later.score(cases[i-1].work, cases[i-1].res)
		} else {
			later.score(c.state, &Result{})
		}
		for _, s := range []struct {
			name string
			got  float64
		}{
			{"delta", newScoreBase(c.state, c.flat).score(c.work, c.res)},
			{"delta after another candidate", later.score(c.work, c.res)},
			{"sweep", placementScore(c.work, c.flat, c.res)},
		} {
			if math.Float64bits(s.got) != math.Float64bits(want) {
				t.Fatalf("%s: %s score %v (%#x), oracle %v (%#x)", c.name, s.name, s.got, math.Float64bits(s.got), want, math.Float64bits(want))
			}
		}
		oracle[i] = math.Float64bits(want)
		if c.res.PlacedApps() < len(c.apps) {
			rolledBack++
			if c.work.NumContainers() != c.state.NumContainers()+placedContainers(c.res) {
				t.Fatalf("%s: scratch cluster holds %d containers, state %d + placed %d", c.name,
					c.work.NumContainers(), c.state.NumContainers(), placedContainers(c.res))
			}
		}
		if ext := evaluateResolved(c.work, c.flat).TotalExtent; ext != math.Trunc(ext) {
			fractional++
		}
	}
	for i := 0; i < len(cases); i += 3 {
		c := cases[i+2] // per seed: Medea-TP, Serial, decoded
		switch placed := c.res.PlacedApps(); {
		case placed == len(c.apps):
			decodeAllPlaced++
		case placed > 0:
			decodeRolledBack++
		}
		unresolved := append(append([]constraint.Entry(nil), c.active...), flattenConstraints(c.apps, nil)...)
		if fmt.Sprint(dedupEntries(unresolved)) != fmt.Sprint(c.flat) {
			overridden++
		}
		for _, e := range c.flat {
			if len(e.Constraint.Terms) > 1 {
				dnf++
				break
			}
		}
	}
	t.Logf("%d placements: %d with an unplaced application, %d with a fractional extent; %d seeds: decoded solution all placed on %d and partly on %d, operator override on %d, DNF constraint on %d",
		len(cases), rolledBack, fractional, len(cases)/3, decodeAllPlaced, decodeRolledBack, overridden, dnf)
	if rolledBack == 0 || decodeRolledBack == 0 || decodeAllPlaced == 0 || fractional == 0 || overridden == 0 || dnf == 0 {
		t.Fatal("coverage: one of the counts above is zero")
	}

	mutants := []struct {
		name  string
		score func(c scoredPlacement) float64
	}{
		{"skip the rollback release", func(c scoredPlacement) float64 {
			// What the scratch cluster would hold had a failed application
			// kept its first container.
			work := c.work.Clone()
			for ai, p := range c.res.Placements {
				if p.Placed {
					continue
				}
				r := buildRequests(c.apps)[ai][0]
				for _, n := range work.Nodes() {
					if work.Allocate(n.ID, r.id, r.demand, r.tags) == nil {
						break
					}
				}
			}
			return placementScore(work, c.flat, c.res)
		}},
		{"count an unplaced app", func(c scoredPlacement) float64 {
			return float64(len(c.res.Placements)) - evaluateResolved(c.work, c.flat).TotalExtent/1e6
		}},
		{"evaluate the pre-placement state", func(c scoredPlacement) float64 {
			return placementScore(c.state, c.flat, c.res)
		}},
		{"delta: an assigned node already in the region is not expanded", func(c scoredPlacement) float64 {
			return mutantDelta(c, func(b *scoreBase, node cluster.NodeID) {
				if !b.region[node] {
					b.mark(b.region, c.work, node)
				}
			})
		}},
		{"delta: the region is the assigned nodes only", func(c scoredPlacement) float64 {
			return mutantDelta(c, func(b *scoreBase, node cluster.NodeID) { b.region[node] = true })
		}},
	}
	for _, m := range mutants {
		caught := 0
		for i, c := range cases {
			if math.Float64bits(m.score(c)) != oracle[i] {
				caught++
			}
		}
		if caught == 0 {
			t.Errorf("mutant %q scores like the oracle on all %d placements", m.name, len(cases))
		}
		t.Logf("mutant %q caught on %d of %d placements", m.name, caught, len(cases))
	}
}

// TestScratchRestoredAfterRelease: Place runs Medea-TP and then Serial on
// the state it is handed, releasing each placement once it is scored, and
// decodes the solver's solution on the same state last. On every
// scoredPlacements seed each heuristic must place on the shared state
// what it places on a clone of its own, and after each release the
// state must equal a fresh clone of it (cluster.Diff): every node's
// used resources and container count, the container map and every set's
// tag multiset.
func TestScratchRestoredAfterRelease(t *testing.T) {
	cases := scoredPlacements(t, 200)
	released := 0
	for i := 0; i < len(cases); i += 3 { // per seed: Medea-TP, Serial, decoded
		state := cases[i].state
		fresh, work := state.Clone(), state.Clone()
		for k, g := range newBestOfGreedy().algs {
			c := cases[i+k]
			res := g.placeOn(work, c.apps, c.flat, new(scoreTable))
			if !reflect.DeepEqual(res.Placements, c.res.Placements) {
				t.Fatalf("%s: places differently on the shared scratch than on a clone of its own", c.name)
			}
			releasePlaced(work, res)
			released += placedContainers(res)
			if diff := work.Diff(fresh); diff != "" {
				t.Fatalf("%s: after the release the scratch differs from a fresh clone: %s", c.name, diff)
			}
		}
	}
	t.Logf("%d seeds, %d containers released", len(cases)/3, released)
}

// mutantDelta is a later candidate's scoreBase.score with the region of
// every assigned node marked by mark instead of scoreBase.mark. The base
// is a first pass over the pre-placement state, which an empty result
// dirties nowhere.
func mutantDelta(c scoredPlacement, mark func(b *scoreBase, node cluster.NodeID)) float64 {
	b := newScoreBase(c.state, c.flat)
	b.score(c.state, &Result{})
	clear(b.region)
	for _, p := range c.res.Placements {
		if p.Placed {
			for _, a := range p.Assignments {
				mark(b, a.Node)
			}
		}
	}
	return b.sum(c.work, c.res)
}

func placedContainers(res *Result) int {
	n := 0
	for _, p := range res.Placements {
		n += len(p.Assignments)
	}
	return n
}
