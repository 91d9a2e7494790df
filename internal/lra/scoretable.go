package lra

import (
	"slices"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/resource"
)

// nodeScore is one (class, node) cell of the score table.
type nodeScore struct {
	ok          bool // the node is available and the demand fits
	delta, util float64
}

// clean reports whether the cell counts towards Nc: the container fits
// and placing it creates no new violation.
func (s nodeScore) clean() bool { return s.ok && s.delta <= 1e-12 }

// scoreClass is the set of queued containers that score identically on
// every node: equal tag vector and equal demand.
type scoreClass struct {
	tags   []constraint.Tag
	demand resource.Vector
	// atoms are the atoms of the Place's constraints the class is the
	// subject or a target of, compiled once; groups are the node groups
	// they count over ("node" excepted: a node's own cell is always
	// re-scored).
	atoms  vecAtoms
	groups []constraint.GroupName
	// memo keeps the atoms' deltas per set of their groups for the
	// current state (setMemo). Every copy of a table shares its class's
	// memo, so the memo's epoch only rises, whichever copy bumps it.
	memo   *setMemo[float64]
	scores []nodeScore // by node index
	// clean is the live number of clean cells. nc is Nc as the Medea-NC
	// ordering sees it: a copy of clean taken at the initial fill and
	// after placements of a scope-sharing class only (§5.3), so it can be
	// stale in between — exactly as stale as a per-container recount
	// would be.
	clean, nc int
}

// scoreTable caches, for one Place call, the score of every node for
// every container class, and keeps it equal to a from-scratch rescoring
// while the working cluster changes underneath it.
//
// What stays fixed for the Place is compiled once per class: which atoms
// of the constraint list its tag vector is the subject or a target of
// (compileAtoms). A cell walks those atoms only and reads γ; it matches
// no tag against an expression.
//
// A cell reads the cluster through three things only: the node's own
// availability and usage, and γ of the sets containing the node in the
// groups the class's matching atoms name. An Allocate or Release on node
// n changes n itself and γ of exactly the sets containing n, so the
// cells to recompute are n and the members of those sets (touched); every
// other cell would come out bit-identical.
//
// The members of one set read the same γ there, so each class keeps a
// setMemo: an atom's delta at a set is computed for the first member a
// fill or a touched rescores and read back for the others, and touched
// bumps the memo's epoch before it rescores, since the state changed.
// Every node of a rack is priced by one reading of the rack per atom. A
// "node" atom is priced at every cell: its sets are single nodes, which a
// memo could never serve twice.
//
// One Medea-ILP Place fills one table on the state as it found it and
// lets every heuristic that scores alike start from a copy of its cells
// (copyFor); candidate selection reads the original.
type scoreTable struct {
	g       *greedy
	work    *cluster.Cluster
	classes []scoreClass
	cells   []nodeScore // every class's scores, class by class
	// scope[a][b] is sharesConstraintScope(a's tags, b's tags): placing a
	// class-a container refreshes class b's nc. Medea-NC only.
	scope [][]bool
}

// newScoreTable groups the queue into classes, fills every cell and
// returns the table with each queue entry's class index.
func newScoreTable(g *greedy, work *cluster.Cluster, cons []constraint.Entry, queue []containerReq) (*scoreTable, []int) {
	t := &scoreTable{g: g, work: work}
	classOf := make([]int, len(queue))
	for i, r := range queue {
		ci := t.find(r.tags, r.demand)
		if ci < 0 {
			ci = len(t.classes)
			t.classes = append(t.classes, scoreClass{tags: r.tags, demand: r.demand})
		}
		classOf[i] = ci
	}
	memos := make([]setMemo[float64], len(t.classes))
	for ci := range t.classes {
		t.classes[ci].compile(work, cons, &memos[ci])
	}

	n := work.NumNodes()
	t.cells = make([]nodeScore, len(t.classes)*n)
	for ci := range t.classes {
		c := &t.classes[ci]
		c.scores = t.cells[ci*n : (ci+1)*n]
		t.fill(c)
	}
	t.scopeFor(g)
	return t, classOf
}

// find returns the index of the class of tags and demand, or -1.
func (t *scoreTable) find(tags []constraint.Tag, demand resource.Vector) int {
	for j := range t.classes {
		if c := &t.classes[j]; c.demand == demand && constraint.SameVector(c.tags, tags) {
			return j
		}
	}
	return -1
}

// compile compiles the class's atoms of cons, lists the node groups they
// count over and lays memo out for them.
func (c *scoreClass) compile(work *cluster.Cluster, cons []constraint.Entry, memo *setMemo[float64]) {
	c.atoms = compileAtoms(nil, cons, c.tags)
	for _, ref := range c.atoms {
		if g := ref.atom.Group; g != constraint.Node && !slices.Contains(c.groups, g) {
			c.groups = append(c.groups, g)
		}
	}
	memo.reset(work, c.atoms)
	c.memo = memo
}

// fill scores every node for the class from scratch and takes its clean
// count as Nc.
func (t *scoreTable) fill(c *scoreClass) {
	c.clean = 0
	for i, n := range t.work.Nodes() {
		c.scores[i] = t.score(c, n)
		if c.scores[i].clean() {
			c.clean++
		}
	}
	c.nc = c.clean
}

// scopeFor builds the scope matrix when g orders by Nc, and drops it
// otherwise.
func (t *scoreTable) scopeFor(g *greedy) {
	t.scope = nil
	if g.order != orderNC {
		return
	}
	t.scope = make([][]bool, len(t.classes))
	for a := range t.classes {
		t.scope[a] = make([]bool, len(t.classes))
		for b := range t.classes {
			t.scope[a][b] = sharesConstraintScope(t.classes[a].atoms, t.classes[b].tags)
		}
	}
}

// copyFor returns a table for g, which must score like t's owner
// (scoresLike), holding t's cells: what a fresh newScoreTable of g on the
// same state and queue would hold. spare, when not nil, is a copy done
// with; the new copy takes over its buffers, so a Place's heuristics
// share one cell array between them besides t's. The classes' memos stay
// shared with t.
func (t *scoreTable) copyFor(g *greedy, spare *scoreTable) *scoreTable {
	c := spare
	if c == nil {
		c = &scoreTable{}
	}
	c.g, c.work = g, t.work
	c.classes = append(c.classes[:0], t.classes...)
	c.cells = append(c.cells[:0], t.cells...)
	n := t.work.NumNodes()
	for ci := range c.classes {
		c.classes[ci].scores = c.cells[ci*n : (ci+1)*n]
	}
	c.scopeFor(g)
	return c
}

// groupScores returns the cells of the class of tags and demand. A
// container group without containers has none; its cells are scored on
// their own, against cons.
func (t *scoreTable) groupScores(cons []constraint.Entry, tags []constraint.Tag, demand resource.Vector) []nodeScore {
	if ci := t.find(tags, demand); ci >= 0 {
		return t.classes[ci].scores
	}
	c := scoreClass{tags: tags, demand: demand, scores: make([]nodeScore, t.work.NumNodes())}
	c.compile(t.work, cons, &setMemo[float64]{})
	t.fill(&c)
	return c.scores
}

// score computes one cell from scratch: the weighted violation delta of
// placing a class container on the node, blended with the algorithm's
// affinity pull and load-balance terms, plus the utilisation tie-break.
func (t *scoreTable) score(c *scoreClass, n *cluster.Node) nodeScore {
	if !n.Available() || !c.demand.Fits(n.Free()) {
		return nodeScore{}
	}
	delta := c.atoms.delta(t.work, n.ID, t.g.subjectOnly, c.memo)
	if t.g.affinityPull > 0 {
		delta -= t.g.affinityPull * affinityPopulation(t.work, c.atoms, n.ID)
	}
	util := n.Used().Add(c.demand).DominantShare(n.Capacity)
	if t.g.loadBalanceWeight > 0 {
		// J-Kube blends constraint and spreading scores rather than
		// lexicographically preferring constraints.
		delta += t.g.loadBalanceWeight * util
	}
	return nodeScore{ok: true, delta: delta, util: util}
}

// rescore recomputes one cell and keeps the class's clean count in step.
func (t *scoreTable) rescore(c *scoreClass, node cluster.NodeID) {
	s := t.score(c, t.work.Node(node))
	if c.scores[node].clean() {
		c.clean--
	}
	if s.clean() {
		c.clean++
	}
	c.scores[node] = s
}

// touched brings the table up to date after an Allocate or Release on
// node: per class, the node's own cell and the cells of every node
// sharing a set with it in one of the class's groups, priced under a new
// memo epoch.
func (t *scoreTable) touched(node cluster.NodeID) {
	for ci := range t.classes {
		c := &t.classes[ci]
		c.memo.epoch++ // the state changed
		t.rescore(c, node)
		for _, grp := range c.groups {
			for _, sid := range t.work.SetsOfNode(grp, node) {
				for _, m := range t.work.SetMembers(grp, sid) {
					if m != node {
						t.rescore(c, m)
					}
				}
			}
		}
	}
}

// refreshNc republishes the live clean count as Nc for every class that
// shares a constraint scope with the class just placed.
func (t *scoreTable) refreshNc(placed int) {
	for b, shares := range t.scope[placed] {
		if shares {
			t.classes[b].nc = t.classes[b].clean
		}
	}
}

// best returns the feasible node with the best score for the class:
// lowest weighted violation delta, then (scaled by loadBalanceWeight, if
// set) the least utilised node, then the lowest node ID for determinism.
func (t *scoreTable) best(class int) (cluster.NodeID, bool) {
	bestID := cluster.NodeID(-1)
	bestDelta, bestUtil := 0.0, 0.0
	for i, s := range t.classes[class].scores {
		if !s.ok {
			continue
		}
		if bestID < 0 || s.delta < bestDelta-1e-12 ||
			(s.delta < bestDelta+1e-12 && s.util < bestUtil-1e-12) {
			bestID, bestDelta, bestUtil = cluster.NodeID(i), s.delta, s.util
		}
	}
	return bestID, bestID >= 0
}
