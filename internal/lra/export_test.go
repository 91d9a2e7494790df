package lra

import (
	"fmt"
	"math"
	"slices"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/ilp"
)

// ScoreFixture holds the three placements a Medea-ILP Place prices —
// Medea-TP's, Serial's and the decoded solver solution — each on a
// scratch clone of its own, for the external benchmarks in bench_test.go.
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
		res, work := g.placeWork(state, apps, f.cons, opts)
		f.works, f.results = append(f.works, work), append(f.results, res)
	}
	groups := batchGroups(apps)
	tp := memoryOf(apps, f.results[0])
	cands := selectCandidates(state, f.cons, groups, opts)
	for gi, g := range groups {
		for n := range tp[apps[g.appIdx].ID].counts[g.name] {
			cands[gi] = append(cands[gi], n)
		}
		slices.Sort(cands[gi])
		cands[gi] = slices.Compact(cands[gi])
	}
	pm := buildModel(state, apps, f.cons, groups, cands, opts.weights())
	warm := pm.replay(apps, tp)
	sol := pm.m.Solve(ilp.Options{
		Deadline:   opts.clock()().Add(opts.solverBudget()),
		WarmStarts: []map[ilp.Var]float64{warm},
		Clock:      opts.Clock,
	})
	if sol.Status != ilp.Optimal && sol.Status != ilp.Feasible {
		return nil, fmt.Errorf("solve ended %v", sol.Status)
	}
	work := state.Clone()
	f.works, f.results = append(f.works, work), append(f.results, decodeSolution(work, apps, sol, pm.S, pm.Y))

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
