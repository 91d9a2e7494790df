package lra

import (
	"math/rand"
	"sort"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/resource"
)

// containerReq is the working representation of one requested container.
type containerReq struct {
	appIdx int
	id     cluster.ContainerID
	group  string
	demand resource.Vector
	tags   []constraint.Tag
}

// buildRequests expands the applications of a batch into container
// requests with automatic appID tags.
func buildRequests(apps []*Application) [][]containerReq {
	out := make([][]containerReq, len(apps))
	for ai, app := range apps {
		seq := 0
		for _, g := range app.Groups {
			tags := app.EffectiveTags(g)
			for j := 0; j < g.Count; j++ {
				out[ai] = append(out[ai], containerReq{
					appIdx: ai,
					id:     cluster.MakeContainerID(app.ID, seq),
					group:  g.Name,
					demand: g.Demand,
					tags:   tags,
				})
				seq++
			}
		}
	}
	return out
}

// ordering selects how the greedy engine picks the next container (§5.3).
type ordering int

const (
	orderSerial ordering = iota // submission order, no reordering
	orderNC                     // fewest node candidates first
	orderTP                     // most popular tags first
)

// greedy is the shared heuristic engine: it places one container at a
// time on the node minimising the weighted violation-extent increase.
// The ordering distinguishes Serial, Medea-NC and Medea-TP; the atom
// filter and load-balance term turn it into J-Kube / J-Kube++.
type greedy struct {
	name  string
	order ordering
	// atomFilter drops constraint atoms an algorithm does not understand
	// (J-Kube lacks cardinality support). Nil keeps everything.
	atomFilter func(constraint.Atom) bool
	// loadBalanceWeight adds a Kubernetes-style least-requested term to
	// node scores.
	loadBalanceWeight float64
	// subjectOnly scores only the candidate's own constraints, ignoring
	// its impact on deployed subjects (Kubernetes semantics; see
	// placementDeltaMode).
	subjectOnly bool
	// firstFit ignores scores entirely and picks randomly among the
	// first few nodes (by ID) with room — the YARN Capacity Scheduler's
	// behaviour of allocating on whichever node heartbeats first with
	// headroom: frontier-biased, no spreading, no constraint awareness.
	firstFit bool
	// rng drives the frontier choice; seeded at construction so runs are
	// reproducible.
	rng *rand.Rand
	// affinityPull adds Kubernetes' InterPodAffinityPriority behaviour:
	// affinity scores grow with the NUMBER of matching containers in the
	// topology, pulling new containers toward the most-populated set
	// rather than merely a satisfying one. Zero disables.
	affinityPull float64
}

// Name implements Algorithm.
func (g *greedy) Name() string { return g.name }

// PlaceSequentially implements SequentialPlacer: only the RNG-driven
// first-fit variants carry cross-call mutable state.
func (g *greedy) PlaceSequentially() bool { return g.rng != nil }

// NewSerial returns the Serial baseline: greedy placement in submission
// order with no container reordering (§7.1).
func NewSerial() Algorithm { return &greedy{name: "Serial", order: orderSerial} }

// NewNodeCandidates returns Medea-NC: the node-candidates heuristic that
// places the container with the least placement flexibility first (§5.3).
func NewNodeCandidates() Algorithm { return &greedy{name: "Medea-NC", order: orderNC} }

// NewTagPopularity returns Medea-TP: the tag-popularity heuristic that
// prioritises containers whose tags appear in the most constraints (§5.3).
func NewTagPopularity() Algorithm { return &greedy{name: "Medea-TP", order: orderTP} }

// filterEntries applies the algorithm's atom filter to every constraint.
func (g *greedy) filterEntries(entries []constraint.Entry) []constraint.Entry {
	if g.atomFilter == nil {
		return entries
	}
	var out []constraint.Entry
	for _, e := range entries {
		var terms [][]constraint.Atom
		for _, term := range e.Constraint.Terms {
			var atoms []constraint.Atom
			for _, a := range term {
				if g.atomFilter(a) {
					atoms = append(atoms, a)
				}
			}
			if len(atoms) > 0 {
				terms = append(terms, atoms)
			}
		}
		if len(terms) > 0 {
			e.Constraint = constraint.Constraint{Terms: terms, Weight: e.Constraint.Weight}
			out = append(out, e)
		}
	}
	return out
}

// Place implements Algorithm.
func (g *greedy) Place(state *cluster.Cluster, apps []*Application, active []constraint.Entry, opts Options) *Result {
	res, _ := g.placeWork(state, apps, flattenConstraints(apps, active), opts)
	return res
}

// placeWork is Place over the batch's already flattened constraint list.
// It also returns the scratch cluster the placement was built on: state
// plus every assignment of the placed applications and nothing of the
// failed ones, which were rolled back.
func (g *greedy) placeWork(state *cluster.Cluster, apps []*Application, flat []constraint.Entry, opts Options) (*Result, *cluster.Cluster) {
	clk := opts.clock()
	start := clk()
	work := state.Clone()
	cons := g.filterEntries(flat)
	reqs := buildRequests(apps)

	var queue []containerReq
	for _, rs := range reqs {
		queue = append(queue, rs...)
	}
	if g.order == orderTP {
		pop := make([]int, len(queue))
		for i, r := range queue {
			pop[i] = tagPopularity(cons, r.tags)
		}
		idx := make([]int, len(queue))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return pop[idx[a]] > pop[idx[b]] })
		nq := make([]containerReq, len(queue))
		for i, j := range idx {
			nq[i] = queue[j]
		}
		queue = nq
	}

	// Every node score of this call lives in one table, kept current
	// across the tentative allocations and rollbacks below. The first-fit
	// baseline ignores scores and has none.
	var tab *scoreTable
	var classOf []int
	if !g.firstFit {
		tab, classOf = newScoreTable(g, work, cons, queue)
	}

	failed := make([]bool, len(apps))
	placedBy := make([][]Assignment, len(apps))
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
			if sel < 0 || tab.classes[classOf[i]].nc < tab.classes[classOf[sel]].nc {
				sel = i
			}
		}
		if sel < 0 {
			break
		}
		r := queue[sel]
		done[sel] = true
		var node cluster.NodeID
		var ok bool
		if tab != nil {
			node, ok = tab.best(classOf[sel])
		} else {
			node, ok = g.firstFitNode(work, r)
		}
		if !ok {
			// All-or-nothing (Equation 4): roll the application back.
			failed[r.appIdx] = true
			for _, a := range placedBy[r.appIdx] {
				if err := work.Release(a.Container); err != nil {
					panic(err) // unreachable: releasing our own tentative allocation
				}
				if tab != nil {
					tab.touched(a.Node)
				}
			}
			placedBy[r.appIdx] = nil
			continue
		}
		if err := work.Allocate(node, r.id, r.demand, r.tags); err != nil {
			panic(err) // unreachable: the node was scored as fitting
		}
		placedBy[r.appIdx] = append(placedBy[r.appIdx], Assignment{
			Container: r.id, Group: r.group, Node: node, Demand: r.demand, Tags: r.tags,
		})
		if tab != nil {
			tab.touched(node)
			if g.order == orderNC {
				// Recalculate Nc only for containers whose placement
				// opportunities were affected in this iteration (§5.3).
				tab.refreshNc(classOf[sel])
			}
		}
	}

	res := &Result{Latency: clk().Sub(start)}
	for ai, app := range apps {
		p := Placement{AppID: app.ID, Placed: !failed[ai] && len(placedBy[ai]) == app.NumContainers()}
		if p.Placed {
			p.Assignments = placedBy[ai]
		}
		res.Placements = append(res.Placements, p)
	}
	return res, work
}

// firstFitNode picks randomly among the first few nodes (by ID) with room.
func (g *greedy) firstFitNode(work *cluster.Cluster, r containerReq) (cluster.NodeID, bool) {
	const frontier = 8
	var fits []cluster.NodeID
	for _, n := range work.Nodes() {
		if n.Available() && r.demand.Fits(n.Free()) {
			fits = append(fits, n.ID)
			if len(fits) == frontier {
				break
			}
		}
	}
	if len(fits) == 0 {
		return -1, false
	}
	return fits[g.rng.Intn(len(fits))], true
}

// tagPopularity counts constraint atoms whose subject or target matches
// the container's tags.
func tagPopularity(cons []constraint.Entry, tags []constraint.Tag) int {
	n := 0
	for _, e := range cons {
		for _, term := range e.Constraint.Terms {
			for _, a := range term {
				if matchesAtom(a, tags) {
					n++
				}
			}
		}
	}
	return n
}

// sharesConstraintScope reports whether placing a container with tags a
// can change the candidate count of a container with tags b: some atom
// relates them (a matches its target while b matches its subject, or both
// compete as subjects of the same atom).
func sharesConstraintScope(cons []constraint.Entry, a, b []constraint.Tag) bool {
	for _, e := range cons {
		for _, term := range e.Constraint.Terms {
			for _, atom := range term {
				if atom.Subject.Matches(b) && (atom.Target.Matches(a) || atom.Subject.Matches(a)) {
					return true
				}
			}
		}
	}
	return false
}

// affinityPopulation returns the total target population the candidate's
// affinity constraints see at this node's sets — Kubernetes' affinity
// priority sums matching pods per topology, so more populated sets score
// higher (and keep attracting more containers).
func affinityPopulation(work *cluster.Cluster, cons []constraint.Entry, tags []constraint.Tag, node cluster.NodeID) float64 {
	total := 0.0
	for _, e := range cons {
		for _, term := range e.Constraint.Terms {
			for _, a := range term {
				if !a.IsAffinity() || !a.Subject.Matches(tags) {
					continue
				}
				for _, sid := range work.SetsOfNode(a.Group, node) {
					total += float64(work.Gamma(a.Group, sid, a.Target))
				}
			}
		}
	}
	return total
}
