package lra

import (
	"cmp"
	"math/rand"
	"slices"

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
	// vecAtoms.delta).
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

	scratch pool[greedyScratch]
}

// greedyScratch is the memory one greedy Place works in: the buffers it
// resolves its constraint list in and its score table.
type greedyScratch struct {
	res resolver
	tab scoreTable
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

// Place implements Algorithm: it places the batch on state and releases
// the placement again before it returns. It keeps nothing of one call
// for the next but its scratch (greedyScratch), whose contents never
// reach a result.
func (g *greedy) Place(state *cluster.Cluster, apps []*Application, active []constraint.Entry, opts Options) *Result {
	clk := opts.clock()
	start := clk()
	sc := g.scratch.get()
	defer g.scratch.put(sc)
	res := g.placeOn(state, apps, sc.res.resolve(apps, active), &sc.tab)
	releasePlaced(state, res)
	res.Latency = clk().Sub(start)
	return res
}

// scoresLike reports whether g prices every cell exactly as o does, so
// that a score table filled for o serves g: neither is first-fit or
// filters atoms, and both score with the same terms.
func (g *greedy) scoresLike(o *greedy) bool {
	return !g.firstFit && !o.firstFit && g.atomFilter == nil && o.atomFilter == nil &&
		g.subjectOnly == o.subjectOnly && g.affinityPull == o.affinityPull && g.loadBalanceWeight == o.loadBalanceWeight
}

// queueOf lists the batch's container requests in submission order.
func queueOf(reqs [][]containerReq) []containerReq {
	var queue []containerReq
	for _, rs := range reqs {
		queue = append(queue, rs...)
	}
	return queue
}

// placeOn places the batch on work itself, allocating every assignment of
// the placed applications there and rolling the failed ones back, with
// tab as its score table. If it panics, it releases what it allocated
// before the panic goes on.
func (g *greedy) placeOn(work *cluster.Cluster, apps []*Application, flat []constraint.Entry, tab *scoreTable) *Result {
	queue := queueOf(buildRequests(apps))
	tab, classOf := g.ownTable(work, flat, queue, tab)
	return g.placeQueue(work, apps, queue, tab, classOf)
}

// ownTable resets tab to g's score table of queue on work, and returns
// it with each request's class: every node score of a placement lives in
// one table, brought up to date across its tentative allocations and
// rollbacks as it is read. The first-fit baseline ignores scores and has
// none.
func (g *greedy) ownTable(work *cluster.Cluster, flat []constraint.Entry, queue []containerReq, tab *scoreTable) (*scoreTable, []int) {
	if g.firstFit {
		return nil, nil
	}
	return tab, tab.reset(g, work, g.filterEntries(flat), queue)
}

// placeQueue is placeOn for queue, the batch's requests in submission
// order, starting from tab, g's score table of work with each request's
// class (nil for first-fit, which places in submission order). It reads
// queue and classOf and leaves them as they were.
func (g *greedy) placeQueue(work *cluster.Cluster, apps []*Application, queue []containerReq, tab *scoreTable, classOf []int) *Result {
	if g.order == orderTP {
		// A container's tag popularity is the number of constraint atoms
		// it is the subject or a target of: its class's compiled atoms.
		idx := make([]int, len(queue))
		for i := range idx {
			idx[i] = i
		}
		pop := func(i int) int { return len(tab.classes[classOf[i]].atoms) }
		slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(pop(b), pop(a)) })
		nq, nc := make([]containerReq, len(queue)), make([]int, len(queue))
		for i, j := range idx {
			nq[i], nc[i] = queue[j], classOf[j]
		}
		queue, classOf = nq, nc
	}
	if g.order == orderNC {
		// Medea-NC compares every class's Nc before its first pick.
		for ci := range tab.classes {
			tab.ensure(ci)
		}
	}

	failed := make([]bool, len(apps))
	placedBy := make([][]Assignment, len(apps))
	finished := false
	defer func() {
		if !finished {
			for _, asg := range placedBy {
				releaseAll(work, asg)
			}
		}
	}()
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
			for ai := r.appIdx; len(placedBy[ai]) > 0; {
				a := placedBy[ai][0]
				placedBy[ai] = placedBy[ai][1:] // off the panic path's list before it is released
				releaseAll(work, []Assignment{a})
				if tab != nil {
					tab.touched(a.Node)
				}
			}
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

	res := &Result{}
	for ai, app := range apps {
		p := Placement{AppID: app.ID, Placed: !failed[ai] && len(placedBy[ai]) == app.NumContainers()}
		if p.Placed {
			p.Assignments = placedBy[ai]
		}
		res.Placements = append(res.Placements, p)
	}
	finished = true
	return res
}

// releasePlaced releases from work every assignment of the result's placed
// applications, undoing a placeOn or decodeSolution on it.
func releasePlaced(work *cluster.Cluster, res *Result) {
	for _, p := range res.Placements {
		if p.Placed {
			releaseAll(work, p.Assignments)
		}
	}
}

// releaseAll releases the assignments from work, which holds them. Release
// undoes Allocate exactly, so each node's usage and count, the container
// map and every γ come back as they were before the assignments were
// allocated.
func releaseAll(work *cluster.Cluster, asgs []Assignment) {
	for _, a := range asgs {
		if err := work.Release(a.Container); err != nil {
			panic(err) // unreachable: the placement allocated it on work
		}
	}
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

// sharesConstraintScope reports whether placing a container whose
// compiled atoms are a (compileAtoms) can change the candidate count of a
// container with tags b: some atom relates them (a matches its target
// while b matches its subject, or both compete as subjects of the same
// atom).
func sharesConstraintScope(a vecAtoms, b []constraint.Tag) bool {
	for _, r := range a {
		if r.atom.Subject.Matches(b) {
			return true
		}
	}
	return false
}

// affinityPopulation returns the total target population the candidate's
// affinity constraints see at this node's sets — Kubernetes' affinity
// priority sums matching pods per topology, so more populated sets score
// higher (and keep attracting more containers). atoms is the candidate's
// compiled form.
func affinityPopulation(work *cluster.Cluster, atoms vecAtoms, node cluster.NodeID) float64 {
	total := 0.0
	for _, r := range atoms {
		if a := r.atom; r.subject && a.IsAffinity() {
			for _, sid := range work.SetsOfNode(a.Group, node) {
				total += float64(work.Gamma(a.Group, sid, a.Target))
			}
		}
	}
	return total
}
