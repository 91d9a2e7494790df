package lra

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/ilp"
)

// oracleScore is the scorer Place ran before it scored placements on the
// scratch cluster they were built on, kept as the oracle of
// placementScore: clone the pre-placement state, allocate every
// assignment of every placed application, flatten and resolve the
// constraints again, evaluate.
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

// scoredPlacements draws, per seed, a cluster with deployed applications
// (every other seed nearly full, so applications fail half way), operator
// constraints that override some of the applications' own, and a batch
// with weighted and DNF constraints; it returns what Medea-TP, Serial and
// a decoded solver solution make of each.
func scoredPlacements(t *testing.T, seeds int) []scoredPlacement {
	t.Helper()
	var out []scoredPlacement
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		state := oracleCluster(rng)
		deployed := oracleBatch(rng, "dep", 3+rng.Intn(6))
		active := deployBatch(t, state, deployed, NewSerial().(*greedy).oraclePlace(state, deployed, nil))
		if seed%2 == 0 {
			fillNearlyFull(t, rng, state)
		}
		apps := oracleBatch(rng, "new", 2+rng.Intn(6))
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
		flat := flattenConstraints(apps, active)
		add := func(name string, res *Result, work *cluster.Cluster) {
			out = append(out, scoredPlacement{
				name: fmt.Sprintf("seed %d %s", seed, name), state: state, work: work,
				apps: apps, active: active, flat: flat, res: res,
			})
		}
		for _, g := range newBestOfGreedy().algs {
			res, work := g.placeWork(state, apps, flat, Options{})
			add(g.name, res, work)
		}
		sol, S, Y := pinnedSolution(rng, state, apps)
		res, work := decodeSolution(state, apps, sol, S, Y)
		add("decoded", res, work)
	}
	return out
}

// TestPlaceScoreMatchesOracle pins the in-place score Place commits by —
// placementScore on the scratch cluster a heuristic or the solution
// decode finished on — to the from-scratch oracle, bit for bit, for
// Medea-TP, Serial and decoded solver solutions over seeded random
// clusters and batches. Then it shows the comparison has teeth: three
// mutants of the in-place scorer, each a bug the move could have
// introduced, must disagree with the oracle somewhere on the same cases.
func TestPlaceScoreMatchesOracle(t *testing.T) {
	cases := scoredPlacements(t, 200)
	var rolledBack, decodeRolledBack, decodeAllPlaced, fractional, overridden, dnf int
	oracle := make([]uint64, len(cases))
	for i, c := range cases {
		got, want := placementScore(c.work, c.flat, c.res), oracleScore(c.state, c.apps, c.active, c.res)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: in-place score %v (%#x), oracle %v (%#x)", c.name, got, math.Float64bits(got), want, math.Float64bits(want))
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

func placedContainers(res *Result) int {
	n := 0
	for _, p := range res.Placements {
		n += len(p.Assignments)
	}
	return n
}
