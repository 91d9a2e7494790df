package lra

import (
	"slices"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/resource"
)

// nodeScore is one (class, node) cell of the score table.
type nodeScore struct {
	ok bool // the node is available and the demand fits
	// stamp is the class memo's epoch of the catch-up that last
	// re-scored the cell (0 for a fill), so that a catch-up re-scores a
	// cell that several touches reach once. It sits in ok's padding.
	stamp       uint32
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
	// memo keeps the atoms' deltas per set of their groups for the state
	// the row was last brought up to (setMemo). Its epoch only rises: a
	// restart and every catch-up bump it.
	memo   setMemo[float64]
	scores []nodeScore // by node index
	// cursor is the length of the table's touch log the row reflects,
	// or -1 while the row has not been filled since the table was made or
	// restarted.
	cursor int
	// clean is the number of clean cells as of the row's last fill or
	// catch-up. nc is Nc as the Medea-NC ordering sees it: a copy of
	// clean taken at the fill and after placements of a scope-sharing
	// class only (§5.3), so it can be stale in between — exactly as stale
	// as a per-container recount would be.
	clean, nc int
}

// scoreTable caches, for one Place call, the score of every node for
// every container class, and gives out a row equal to a from-scratch
// rescoring of the working cluster as it is when the row is read.
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
// cells it makes stale are n and the members of those sets; every other
// cell would come out bit-identical. The table re-scores them when they
// are read, not when they go stale: touched only logs n, and ensure,
// which every reader calls before it reads a row, fills a row never
// filled on the state as it is then, or re-scores the cells the touches
// logged since the row's cursor reach. A class whose containers are
// placed, or that is not read again before the next change, costs
// nothing.
//
// The members of one set read the same γ there, so each class keeps a
// setMemo: an atom's delta at a set is computed for the first member a
// fill or a catch-up rescores and read back for the others. A catch-up
// bumps the memo's epoch before it rescores, since the state changed,
// and stamps each cell it rescores with that epoch, so a cell several
// touches reach is rescored once. Every node of a rack is priced by one
// reading of the rack per atom. A "node" atom is priced at every cell:
// its sets are single nodes, which a memo could never serve twice. An
// atom whose subject and target no container carries is dormant
// (setMemo.wake, at every fill and catch-up): it reads γ 0 everywhere,
// so one memo entry serves the whole row, "node" atoms included.
//
// A scorer keeps its table between Places and resets it for each
// (reset), reusing every buffer. One Medea-ILP Place resets one table and
// its heuristics share it: each
// that scores like the table's owner restarts it (restart), and so does
// candidate selection after them. Between two readers the state goes
// back to where it was, through releases the table is not told of, so a
// restart forgets every row.
type scoreTable struct {
	g       *greedy
	work    *cluster.Cluster
	classes []scoreClass
	classOf []int       // by queue entry: its class (reset's result)
	cells   []nodeScore // every class's scores, class by class
	// log lists the nodes of every Allocate and Release since the table
	// was made or restarted, in order (touched).
	log []cluster.NodeID
	// scope[a*len(classes)+b] is sharesConstraintScope(a's tags, b's
	// tags): placing a class-a container refreshes class b's nc. Medea-NC
	// only.
	scope []bool
}

// reset makes t g's table of queue on work against cons, reusing every
// buffer t holds, and returns each queue entry's class index (a buffer
// of t's, rewritten by the next reset). No row is filled yet.
func (t *scoreTable) reset(g *greedy, work *cluster.Cluster, cons []constraint.Entry, queue []containerReq) []int {
	t.g, t.work, t.log = g, work, t.log[:0]
	// A group's requests are consecutive, so each run of equal requests
	// starts at most one class.
	runs := 0
	for i, r := range queue {
		if i == 0 || r.demand != queue[i-1].demand || !constraint.SameVector(r.tags, queue[i-1].tags) {
			runs++
		}
	}
	// Within their capacity the class slots keep the buffers of the
	// classes they held before, which compile reuses.
	t.classes = slices.Grow(t.classes[:0], runs)
	t.classOf = slices.Grow(t.classOf[:0], len(queue))[:len(queue)]
	for i, r := range queue {
		ci := t.find(r.tags, r.demand)
		if ci < 0 {
			ci = len(t.classes)
			t.classes = t.classes[:ci+1]
			c := &t.classes[ci]
			c.tags, c.demand, c.cursor = r.tags, r.demand, -1
		}
		t.classOf[i] = ci
	}
	for ci := range t.classes {
		t.classes[ci].compile(work, cons)
	}

	n := work.NumNodes()
	t.cells = slices.Grow(t.cells[:0], len(t.classes)*n)[:len(t.classes)*n]
	for ci := range t.classes {
		t.classes[ci].scores = t.cells[ci*n : (ci+1)*n]
	}
	t.scopeFor(g)
	return t.classOf
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
// count over and lays its memo out for them, reusing the class's
// buffers.
func (c *scoreClass) compile(work *cluster.Cluster, cons []constraint.Entry) {
	c.atoms = compileAtoms(c.atoms[:0], cons, c.tags)
	c.groups = c.groups[:0]
	for _, ref := range c.atoms {
		if g := ref.atom.Group; g != constraint.Node && !slices.Contains(c.groups, g) {
			c.groups = append(c.groups, g)
		}
	}
	c.memo.reset(work, c.atoms)
}

// fill scores every node for the class from scratch and takes its clean
// count as Nc.
func (t *scoreTable) fill(c *scoreClass) {
	c.memo.wake(t.work, c.atoms)
	c.clean = 0
	for i, n := range t.work.Nodes() {
		c.scores[i] = t.score(c, n)
		if c.scores[i].clean() {
			c.clean++
		}
	}
	c.nc = c.clean
}

// scopeFor builds the scope matrix when g orders by Nc, and empties it
// otherwise.
func (t *scoreTable) scopeFor(g *greedy) {
	t.scope = t.scope[:0]
	if g.order != orderNC {
		return
	}
	k := len(t.classes)
	t.scope = slices.Grow(t.scope, k*k)[:k*k]
	for a := range t.classes {
		for b := range t.classes {
			t.scope[a*k+b] = sharesConstraintScope(t.classes[a].atoms, t.classes[b].tags)
		}
	}
}

// restart readies the table for g, which must score like its owner
// (scoresLike), on the state as it is now: every row counts as never
// filled, and each class's memo moves to a new epoch, above every stamp
// its entries hold.
func (t *scoreTable) restart(g *greedy) {
	t.g = g
	t.log = t.log[:0]
	for ci := range t.classes {
		c := &t.classes[ci]
		c.cursor = -1
		c.memo.epoch++
	}
	t.scopeFor(g)
}

// groupScores returns the cells of the class of tags and demand. A
// container group without containers has none; its cells are scored on
// their own, against cons.
func (t *scoreTable) groupScores(cons []constraint.Entry, tags []constraint.Tag, demand resource.Vector) []nodeScore {
	if ci := t.find(tags, demand); ci >= 0 {
		return t.ensure(ci).scores
	}
	c := scoreClass{tags: tags, demand: demand, scores: make([]nodeScore, t.work.NumNodes())}
	c.compile(t.work, cons)
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
	delta := c.atoms.delta(t.work, n.ID, t.g.subjectOnly, &c.memo)
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

// rescore recomputes one cell, unless the catch-up under way did so
// already, and keeps the class's clean count in step.
func (t *scoreTable) rescore(c *scoreClass, node cluster.NodeID) {
	cell := &c.scores[node]
	if cell.stamp == c.memo.epoch {
		return
	}
	s := t.score(c, t.work.Node(node))
	s.stamp = c.memo.epoch
	if cell.clean() {
		c.clean--
	}
	if s.clean() {
		c.clean++
	}
	*cell = s
}

// touched logs an Allocate or Release on node for the rows to catch up
// on when they are read (ensure).
func (t *scoreTable) touched(node cluster.NodeID) {
	t.log = append(t.log, node)
}

// ensure brings class ci's row up to the state as it is now and returns
// the class. A row never filled is filled. Otherwise the row catches up
// on the touches logged since its cursor, under a new memo epoch: per
// touch on node n, n's own cell and the cells of every node sharing a set
// with n in one of the class's groups.
func (t *scoreTable) ensure(ci int) *scoreClass {
	c := &t.classes[ci]
	if c.cursor < 0 {
		t.fill(c)
	} else if c.cursor < len(t.log) {
		c.memo.epoch++ // the state changed
		c.memo.wake(t.work, c.atoms)
		for _, node := range t.log[c.cursor:] {
			t.rescore(c, node)
			for _, grp := range c.groups {
				for _, sid := range t.work.SetsOfNode(grp, node) {
					for _, m := range t.work.SetMembers(grp, sid) {
						t.rescore(c, m)
					}
				}
			}
		}
	}
	c.cursor = len(t.log)
	return c
}

// refreshNc brings every class that shares a constraint scope with the
// class just placed up to date and republishes its clean count as Nc.
func (t *scoreTable) refreshNc(placed int) {
	k := len(t.classes)
	for b, shares := range t.scope[placed*k : (placed+1)*k] {
		if shares {
			c := t.ensure(b)
			c.nc = c.clean
		}
	}
}

// best returns the feasible node with the best score for the class:
// lowest weighted violation delta, then (scaled by loadBalanceWeight, if
// set) the least utilised node, then the lowest node ID for determinism.
func (t *scoreTable) best(class int) (cluster.NodeID, bool) {
	bestID := cluster.NodeID(-1)
	bestDelta, bestUtil := 0.0, 0.0
	for i, s := range t.ensure(class).scores {
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
