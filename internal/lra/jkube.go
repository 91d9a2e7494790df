package lra

import (
	"math/rand"

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

// newBestOfGreedy runs the Serial and tag-popularity heuristics and keeps
// the placement with more placed applications, breaking ties on the lower
// weighted violation extent. Medea-ILP uses it to seed the solver with
// the strongest cheap incumbent (§5.3's heuristics as a MIP start).
func newBestOfGreedy() *bestOf {
	return &bestOf{algs: []*greedy{NewTagPopularity().(*greedy), NewSerial().(*greedy)}}
}

type bestOf struct {
	algs []*greedy
}

// placeBest places the batch with every heuristic against its flattened
// constraint list (flattenConstraints) and returns the result with the
// highest placementScore, and that score.
func (b *bestOf) placeBest(state *cluster.Cluster, apps []*Application, flat []constraint.Entry, opts Options) (best *Result, bestScore float64) {
	for _, alg := range b.algs {
		res, work := alg.placeWork(state, apps, flat, opts)
		score := placementScore(work, flat, res)
		if best == nil || score > bestScore {
			best, bestScore = res, score
		}
	}
	return best, bestScore
}

// placementScore rates a result: more placed apps first, then fewer
// violations. work is the cluster holding exactly the result's placed
// applications on top of the state they were planned against, and flat
// the batch's flattened constraint list.
func placementScore(work *cluster.Cluster, flat []constraint.Entry, res *Result) float64 {
	return float64(res.PlacedApps()) - evaluateResolved(work, flat).TotalExtent/1e6
}
