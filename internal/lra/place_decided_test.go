package lra

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/ilp"
)

// referencePlace is Place as it was before it returned a decided
// fallback, kept as the reference of both short-circuits: both
// heuristics run and are scored, the model is always built and solved,
// and a solver solution is always decoded and, unless it puts every
// container where the fallback does, scored. It returns the result, the
// fallback and its score, and every score it priced. It reads the clock
// where Place does, before and after each heuristic Place runs, so that
// on a ticking clock its solve has the same deadline.
func referencePlace(s *ilpScheduler, state *cluster.Cluster, apps []*Application, active []constraint.Entry, opts Options) (final, fb *Result, fbScore float64, scores []float64) {
	clk := opts.clock()
	start := clk()
	cons := flattenConstraints(apps, active)
	reqs := buildRequests(apps)
	queue := queueOf(reqs)
	base := newScoreBase(state, cons)
	tab, classOf := newScoreTable(&greedy{}, state, cons, queue)

	for _, alg := range s.fallback.algs {
		ran := fb == nil || fbScore < float64(len(apps))
		if ran {
			clk()
		}
		var res *Result
		if alg.scoresLike(tab.g) {
			tab.restart(alg)
			res = alg.placeQueue(state, apps, queue, tab, classOf)
		} else {
			own, ownClass := alg.ownTable(state, cons, queue, new(scoreTable))
			res = alg.placeQueue(state, apps, queue, own, ownClass)
		}
		score := base.scoreAndRelease(state, res)
		if ran {
			clk()
		}
		scores = append(scores, score)
		if fb == nil || score > fbScore {
			fb, fbScore = res, score
		}
	}
	tab.restart(tab.g)
	sol, pm := solve(state, apps, cons, tab, fb, start, opts, ilp.NewSolverArena())
	final = fb
	decoded := sol != nil && (sol.Status == ilp.Optimal || sol.Status == ilp.Feasible)
	if decoded {
		res := decodeSolution(state, apps, reqs, sol, pm.S, pm.Y)
		if sameNodes(res, fb) {
			releasePlaced(state, res)
		} else {
			score := base.scoreAndRelease(state, res)
			scores = append(scores, score)
			if score > fbScore {
				final = res
			}
		}
	}
	stamp(final, sol)
	final.SolverDecodes, final.SolverCommits = b2f(decoded), b2f(final != fb)
	return final, fb, fbScore, scores
}

// stamp records on the reference's result how its solve went, as Place
// did before it returned a decided fallback: budget, validity, node count
// and whether the warm start seeded the incumbent. sol is nil when the
// model failed its check.
func stamp(final *Result, sol *ilp.Solution) {
	if sol == nil {
		final.Invalid = true
		return
	}
	final.DeadlineHit = sol.DeadlineHit
	if sol.Status != ilp.Optimal && sol.Status != ilp.Feasible {
		final.Exhausted = sol.DeadlineHit
		final.Invalid = sol.Status == ilp.Invalid
	}
	final.ExactSolves++
	final.Nodes += sol.Nodes
	if sol.WarmUsed {
		final.WarmStarts++
	}
}

// sameNodes reports whether two results for one batch place the same
// applications and put every container on the same node, in whatever
// order they list the assignments: such results score identically.
// Place scores such a result anyway (a tie keeps the fallback, so a skip
// changes no outcome); referencePlace skips the decoded one, and
// TestILPPlaceGolden counts the requeues that move a placement.
func sameNodes(a, b *Result) bool {
	for i, p := range a.Placements {
		q := b.Placements[i]
		if p.Placed != q.Placed || len(p.Assignments) != len(q.Assignments) {
			return false
		}
		for _, asg := range p.Assignments {
			if !slices.ContainsFunc(q.Assignments, func(o Assignment) bool {
				return o.Container == asg.Container && o.Node == asg.Node
			}) {
				return false
			}
		}
	}
	return true
}

// TestPlaceMatchesReference holds Place, which skips Serial once the
// fallback's score is decided and then returns the fallback before it
// builds the model, to referencePlace, which never skips: from placeBest
// the same fallback and the same score bits; from a decided Place the
// reference's placements, with no solve run, no arena checked out and
// no solver fault reported; from an undecided one the same Result, its
// one solve and its decode and commit counts. Every score the reference
// prices must sit at or below the batch's size, the bound both
// short-circuits rely on. The cases are the 200 scenarios of
// TestILPPlaceGolden, each placed, then placed again without its first
// application once that one is committed, and the placement oracle's
// instances of seeds 1–200; the random constraints of the first leave a
// violation in nearly every placement, the second's are often met. The
// clock ticks per reading with TestILPPlaceGolden's budgets, so
// budget-bound solves are compared too.
func TestPlaceMatchesReference(t *testing.T) {
	var places, skippedSerial, skippedSolve, undecided, commits int
	check := func(label string, s *ilpScheduler, state *cluster.Cluster, apps []*Application, active []constraint.Entry, opts Options) *Result {
		t.Helper()
		opts.Clock = tickingClock(time.Millisecond)
		want, wantFB, wantScore, scores := referencePlace(s, state, apps, active, opts)
		for _, sc := range scores {
			if bound := float64(len(apps)); !(sc <= bound) {
				t.Fatalf("%s: a placement scores %v (%#x), above the bound %v", label, sc, math.Float64bits(sc), bound)
			}
		}

		cons := flattenConstraints(apps, active)
		queue := queueOf(buildRequests(apps))
		tab, classOf := newScoreTable(&greedy{}, state, cons, queue)
		fb, fbScore := s.fallback.placeBest(state, apps, cons, queue, tab, classOf, newScoreBase(state, cons), opts)
		if !reflect.DeepEqual(fb.Placements, wantFB.Placements) || math.Float64bits(fbScore) != math.Float64bits(wantScore) {
			t.Fatalf("%s: placeBest returns %s scoring %v (%#x), the reference %s scoring %v (%#x)", label,
				placeGoldenLine("got", fb), fbScore, math.Float64bits(fbScore),
				placeGoldenLine("want", wantFB), wantScore, math.Float64bits(wantScore))
		}

		opts.Clock = tickingClock(time.Millisecond)
		var got *Result
		heuristics, arenas := CountRuns(s, func() { got = s.Place(state, apps, active, opts) })
		places++
		skippedSerial += b2f(heuristics < len(s.fallback.algs))
		if decided(wantFB, wantScore) {
			if !reflect.DeepEqual(got.Placements, want.Placements) || got.DecidedPlaces != 1 || arenas != 0 ||
				got.ExactSolves != 0 || got.WarmStarts != 0 || got.Nodes != 0 || got.SolverDecodes != 0 ||
				got.DeadlineHit || got.Exhausted || got.Invalid {
				t.Fatalf("%s: the decided Place and the reference differ, or it solved: %d arenas, %d decided, %d decodes\n%s nodes=%d invalid=%v\n%s",
					label, arenas, got.DecidedPlaces, got.SolverDecodes, placeGoldenLine("got", got), got.Nodes, got.Invalid, placeGoldenLine("want", want))
			}
			skippedSolve++
			return got
		}
		if !samePlace(got, want) || got.ExactSolves != want.ExactSolves || got.Invalid != want.Invalid || got.DecidedPlaces != 0 ||
			arenas != want.ExactSolves || got.SolverDecodes != want.SolverDecodes || got.SolverCommits != want.SolverCommits {
			t.Fatalf("%s: Place and the reference differ, or Place checked out %d arenas:\n%s nodes=%d decided=%d decodes=%d commits=%d\n%s nodes=%d decodes=%d commits=%d",
				label, arenas, placeGoldenLine("got", got), got.Nodes, got.DecidedPlaces, got.SolverDecodes, got.SolverCommits,
				placeGoldenLine("want", want), want.Nodes, want.SolverDecodes, want.SolverCommits)
		}
		undecided++
		commits += got.SolverCommits
		return got
	}
	budget := func(seed int64) time.Duration { return []time.Duration{6, 40, 120}[(seed/3)%3] * time.Millisecond }

	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		state := oracleCluster(rng)
		deployed := oracleBatch(rng, "dep", 3+rng.Intn(6))
		active := deployBatch(t, state, deployed, NewSerial().(*greedy).oraclePlace(state, deployed, nil))
		if seed%2 == 0 {
			fillNearlyFull(t, rng, state)
		}
		apps := oracleBatch(rng, "new", 1+rng.Intn(4))
		opts := Options{SolverBudget: budget(seed)}
		if seed%5 == 0 {
			opts.MaxCandidates = 4
		}
		if seed%7 == 0 {
			opts.Weights = Weights{W1: 1, W2: 0.75, W3: 0.25}
		}
		s := NewILP().(*ilpScheduler)
		first := check(fmt.Sprintf("scenario %d", seed), s, state, apps, active, opts)
		if len(apps) > 1 && first.Placements[0].Placed {
			active = append(active, deployBatch(t, state, apps[:1], first.Placements[:1])...)
			check(fmt.Sprintf("scenario %d requeued", seed), s, state, apps[1:], active, opts)
		}
	}
	for seed := int64(1); seed <= 200; seed++ {
		in := newTinyInstance(seed)
		check(fmt.Sprintf("instance %d", seed), NewILP().(*ilpScheduler), in.state, in.apps, in.active, Options{SolverBudget: budget(seed)})
	}
	t.Logf("%d Places: %d skipped Serial, %d returned a decided fallback unsolved, %d solved an undecided one (%d committed the solver's placement)",
		places, skippedSerial, skippedSolve, undecided, commits)
	if skippedSerial == 0 || skippedSolve == 0 || undecided == 0 || commits == 0 {
		t.Fatal("coverage: a short-circuit fires on every Place or on none, or no Place commits the solver's placement")
	}
}
