package lra

import (
	"math/rand"
	"sync/atomic"

	"medea/internal/cluster"
	"medea/internal/constraint"
)

// NewJKube returns J-Kube: the paper's re-implementation of Kubernetes'
// scheduling algorithm inside Medea's LRA scheduler (§7.1). It considers
// one container request at a time, supports (anti-)affinity but no
// cardinality constraints, and blends constraint satisfaction with a
// least-requested load-balancing score, mirroring Kubernetes' node
// scoring.
//
// Cardinality atoms (anything that is neither pure affinity nor pure
// anti-affinity) are dropped, exactly the capability gap §7.2 attributes
// J-Kube's worse placements to.
func NewJKube() Algorithm {
	return &greedy{
		name:  "J-Kube",
		order: orderSerial,
		atomFilter: func(a constraint.Atom) bool {
			return a.IsAffinity() || a.IsAntiAffinity()
		},
		loadBalanceWeight: 0.25,
		subjectOnly:       true,
		affinityPull:      0.05,
	}
}

// NewJKubePlusPlus returns J-Kube++: J-Kube extended with cardinality
// constraint support (§7.1). It still schedules one container request at
// a time, which is what keeps its placements inferior to Medea-ILP for
// inter-application constraints (§7.4).
func NewJKubePlusPlus() Algorithm {
	return &greedy{
		name:              "J-Kube++",
		order:             orderSerial,
		loadBalanceWeight: 0.25,
		subjectOnly:       true,
		affinityPull:      0.05,
	}
}

// NewYARN returns the constraint-unaware YARN baseline of §7.1: placement
// ignores all constraints entirely (YARN 2.7 supports none of Medea's
// constraint forms) and allocates first-fit, as the Capacity Scheduler
// does on whichever node heartbeats with headroom — so constraints are
// satisfied only "randomly", the behaviour §7.2 attributes YARN's runtime
// unpredictability to.
func NewYARN() Algorithm {
	return &greedy{
		name:       "YARN",
		order:      orderSerial,
		atomFilter: func(constraint.Atom) bool { return false },
		firstFit:   true,
		rng:        rand.New(rand.NewSource(94)), // fixed seed: reproducible runs
	}
}

// newBestOfGreedy runs the tag-popularity and Serial heuristics and keeps
// the placement with more placed applications, breaking ties on the lower
// weighted violation extent; Serial does not run when tag popularity
// places every application without a violation. Medea-ILP uses it to
// seed the solver with the strongest cheap incumbent (§5.3's heuristics
// as a MIP start).
func newBestOfGreedy() *bestOf {
	return &bestOf{algs: []*greedy{NewTagPopularity().(*greedy), NewSerial().(*greedy)}}
}

type bestOf struct {
	algs []*greedy
	runs *atomic.Int64 // nil unless a test counts the heuristics that run
}

// placeBest places the batch with every heuristic against its flattened
// constraint list (resolver.resolve), one after the other on work,
// base's state, and returns the result base scores highest, and that
// score. Each heuristic's placement is scored on work and released again,
// so work ends as it began, and a tie keeps the best so far; once the
// best so far is decided no further heuristic runs. queue is the batch's
// requests in submission order, and tab a score table of them on work,
// with each request's class: a heuristic that scores like tab's owner
// restarts tab and places from it, any other makes a table of its own.
func (b *bestOf) placeBest(work *cluster.Cluster, apps []*Application, flat []constraint.Entry, queue []containerReq, tab *scoreTable, classOf []int, base *scoreBase, opts Options) (best *Result, bestScore float64) {
	clk := opts.clock()
	for _, alg := range b.algs {
		if best != nil && decided(best, bestScore) {
			break
		}
		if b.runs != nil {
			b.runs.Add(1)
		}
		start := clk()
		var res *Result
		if alg.scoresLike(tab.g) {
			tab.restart(alg)
			res = alg.placeQueue(work, apps, queue, tab, classOf)
		} else {
			own, ownClassOf := alg.ownTable(work, flat, queue, new(scoreTable))
			res = alg.placeQueue(work, apps, queue, own, ownClassOf)
		}
		score := base.scoreAndRelease(work, res)
		res.Latency = clk().Sub(start)
		if best == nil || score > bestScore {
			best, bestScore = res, score
		}
	}
	return best, bestScore
}
