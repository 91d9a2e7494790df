package lra

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/ilp"
)

// placeOnClone places the batch on a clone of state and returns the
// result with the clone, which keeps the placement: state plus every
// assignment of the placed applications.
func (g *greedy) placeOnClone(state *cluster.Cluster, apps []*Application, flat []constraint.Entry) (*Result, *cluster.Cluster) {
	work := state.Clone()
	return g.placeOn(work, apps, flat, new(scoreTable)), work
}

// flattenConstraints is the resolved list a Place scores against, in a
// fresh resolver.
func flattenConstraints(apps []*Application, active []constraint.Entry) []constraint.Entry {
	return new(resolver).resolve(apps, active)
}

// newScoreTable returns a fresh score table of queue on work against
// cons, as a Place resets its pooled one, with each entry's class.
func newScoreTable(g *greedy, work *cluster.Cluster, cons []constraint.Entry, queue []containerReq) (*scoreTable, []int) {
	t := new(scoreTable)
	return t, t.reset(g, work, cons, queue)
}

// ScoreFixture holds the three placements a Medea-ILP Place prices when
// no comparison is decided — Medea-TP's, Serial's and the decoded solver
// solution — each on a scratch clone of its own, for the external
// benchmarks in bench_test.go, and the solve that found the third.
type ScoreFixture struct {
	state   *cluster.Cluster
	cons    []constraint.Entry
	works   []*cluster.Cluster
	results []*Result
	sol     *ilp.Solution
}

// NewScoreFixture runs the two heuristics of Place on state and solves
// the batch's model warm-started from Medea-TP's placement, as an
// undecided Place solves it from its fallback. It fails when the solve
// finds no solution within the budget or when the two scorers disagree
// on a placement.
func NewScoreFixture(state *cluster.Cluster, apps []*Application, active []constraint.Entry, opts Options) (*ScoreFixture, error) {
	f := &ScoreFixture{state: state, cons: flattenConstraints(apps, active)}
	for _, g := range newBestOfGreedy().algs {
		res, work := g.placeOnClone(state, apps, f.cons)
		f.works, f.results = append(f.works, work), append(f.results, res)
	}
	tab, _ := newScoreTable(&greedy{}, state, f.cons, queueOf(buildRequests(apps)))
	sol, pm := solve(state, apps, f.cons, tab, f.results[0], opts.clock()(), opts, ilp.NewSolverArena())
	if sol == nil {
		return nil, fmt.Errorf("the model fails its check")
	}
	if sol.Status != ilp.Optimal && sol.Status != ilp.Feasible {
		return nil, fmt.Errorf("solve ended %v", sol.Status)
	}
	f.sol = sol
	work := state.Clone()
	f.works, f.results = append(f.works, work), append(f.results, decodeSolution(work, apps, buildRequests(apps), sol, pm.S, pm.Y))

	base := newScoreBase(state, f.cons)
	for i, work := range f.works {
		sweep, delta := placementScore(work, f.cons, f.results[i]), base.score(work, f.results[i])
		if math.Float64bits(sweep) != math.Float64bits(delta) {
			return nil, fmt.Errorf("placement %d: sweep scores %v, delta %v", i, sweep, delta)
		}
	}
	return f, nil
}

// Solution returns the solve of the fixture's model.
func (f *ScoreFixture) Solution() *ilp.Solution { return f.sol }

// Sweep prices the three placements with a full evaluateResolved sweep
// each, as Place did before it priced them by their delta.
func (f *ScoreFixture) Sweep() float64 {
	total := 0.0
	for i, work := range f.works {
		total += placementScore(work, f.cons, f.results[i])
	}
	return total
}

// Delta prices the three placements as Place does: one pass over the
// first placement's cluster, then the delta of each other.
func (f *ScoreFixture) Delta() float64 {
	base := newScoreBase(f.state, f.cons)
	total := 0.0
	for i, work := range f.works {
		total += base.score(work, f.results[i])
	}
	return total
}

// newScoreBase returns a fresh score base of state against cons, as a
// Place resets its pooled one.
func newScoreBase(state *cluster.Cluster, cons []constraint.Entry) *scoreBase {
	return new(scoreBase).reset(state, cons)
}

// DedupEntries is dedupEntries, for TestDedupMatchesText.
var DedupEntries = dedupEntries

// OracleEntries returns the constraint entries of the placement oracle's
// instance of seed as a Place receives them, unresolved: the deployed and
// operator entries, then the batch's own.
func OracleEntries(seed int64) []constraint.Entry {
	in := newTinyInstance(seed)
	entries := slices.Clone(in.active)
	for _, a := range in.apps {
		for _, c := range a.Constraints {
			entries = append(entries, constraint.Entry{AppID: a.ID, Source: constraint.SourceApplication, Constraint: c})
		}
	}
	return entries
}

// CountRuns returns how many heuristics alg, a Medea-ILP, ran in its
// fallback and how many solver arenas it made while f ran. The arenas
// are counted on an empty scratch pool, as the scratch f leaves there
// with an arena: a checkout that finds the pool empty makes a scratch,
// its first solve an arena, and every scratch checked out is returned.
// The pool alg held before is kept.
func CountRuns(alg Algorithm, f func()) (heuristics, arenas int) {
	s := alg.(*ilpScheduler)
	var c atomic.Int64
	s.fallback.runs = &c
	pool := s.scratch.free
	s.scratch.free = nil
	defer func() {
		s.fallback.runs = nil
		s.scratch.free = append(pool, s.scratch.free...)
	}()
	f()
	for _, sc := range s.scratch.free {
		if sc.arena != nil {
			arenas++
		}
	}
	return int(c.Load()), arenas
}

// PooledPlans returns the plans of alg's scratch pool, alg a Medea-ILP.
func PooledPlans(alg Algorithm) []any {
	var out []any
	for _, sc := range alg.(*ilpScheduler).scratch.free {
		out = append(out, sc.base.plan)
	}
	return out
}
