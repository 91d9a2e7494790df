package lra

import (
	"fmt"
	"math"
	"slices"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/ilp"
)

// placeOnClone places the batch on a clone of state and returns the
// result with the clone, which keeps the placement: state plus every
// assignment of the placed applications.
func (g *greedy) placeOnClone(state *cluster.Cluster, apps []*Application, flat []constraint.Entry) (*Result, *cluster.Cluster) {
	work := state.Clone()
	return g.placeOn(work, apps, flat), work
}

// ScoreFixture holds the three placements a Medea-ILP Place prices when
// no comparison is decided — Medea-TP's, Serial's and the decoded solver
// solution — each on a scratch clone of its own, for the external
// benchmarks in bench_test.go.
type ScoreFixture struct {
	state   *cluster.Cluster
	cons    []constraint.Entry
	works   []*cluster.Cluster
	results []*Result
}

// NewScoreFixture runs the two heuristics of Place on state and solves
// the batch's model warm-started from Medea-TP's placement, every node of
// which is a candidate, as Place does. It fails when the solve finds no solution within the budget or
// when the two scorers disagree on a placement.
func NewScoreFixture(state *cluster.Cluster, apps []*Application, active []constraint.Entry, opts Options) (*ScoreFixture, error) {
	f := &ScoreFixture{state: state, cons: flattenConstraints(apps, active)}
	for _, g := range newBestOfGreedy().algs {
		res, work := g.placeOnClone(state, apps, f.cons)
		f.works, f.results = append(f.works, work), append(f.results, res)
	}
	groups := batchGroups(apps)
	tp := groupCounts(groups, f.results[0])
	tab, _ := newScoreTable(&greedy{}, state, f.cons, queueOf(buildRequests(apps)))
	cands := selectCandidates(state, tab, f.cons, groups, opts)
	for gi := range groups {
		for n := range tp[gi] {
			cands[gi] = append(cands[gi], n)
		}
		slices.Sort(cands[gi])
		cands[gi] = slices.Compact(cands[gi])
	}
	pm := buildModel(state, apps, f.cons, groups, cands, opts.weights())
	warm := pm.warmValues(f.results[0], tp)
	sol := pm.m.Solve(ilp.Options{
		Deadline:   opts.clock()().Add(opts.solverBudget()),
		WarmStarts: []map[ilp.Var]float64{warm},
		Clock:      opts.Clock,
	})
	if sol.Status != ilp.Optimal && sol.Status != ilp.Feasible {
		return nil, fmt.Errorf("solve ended %v", sol.Status)
	}
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

// Sweep prices the three placements with a full evaluateResolved sweep
// each, as Place did before it priced them by their delta.
func (f *ScoreFixture) Sweep() float64 {
	total := 0.0
	for i, work := range f.works {
		total += placementScore(work, f.cons, f.results[i])
	}
	return total
}

// Delta prices the three placements as Place does: one base sweep of the
// state, then the delta of each.
func (f *ScoreFixture) Delta() float64 {
	base := newScoreBase(f.state, f.cons)
	total := 0.0
	for i, work := range f.works {
		total += base.score(work, f.results[i])
	}
	return total
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
// fallback and how many solver placements it decoded while f ran.
func CountRuns(alg Algorithm, f func()) (heuristics, decodes int) {
	c := &runCounts{}
	fb := alg.(*ilpScheduler).fallback
	fb.runs = c
	defer func() { fb.runs = nil }()
	f()
	return int(c.heuristics.Load()), int(c.decodes.Load())
}
