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
	// cons are the entries with an atom the class matches; groups are the
	// node groups those atoms count over ("node" excepted: a node's own
	// cell is always re-scored).
	cons   []constraint.Entry
	groups []constraint.GroupName
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
// A cell reads the cluster through three things only: the node's own
// availability and usage, and γ of the sets containing the node in the
// groups the class's matching atoms name. An Allocate or Release on node
// n changes n itself and γ of exactly the sets containing n, so the
// cells to recompute are n and the members of those sets (touched); every
// other cell would come out bit-identical.
type scoreTable struct {
	g       *greedy
	work    *cluster.Cluster
	classes []scoreClass
	// scope[a][b] is sharesConstraintScope(a's tags, b's tags): placing a
	// class-a container refreshes class b's nc. Medea-NC only.
	scope [][]bool
}

// newScoreTable groups the queue into classes, fills every cell and
// returns the table with each queue entry's class index.
func newScoreTable(g *greedy, work *cluster.Cluster, cons []constraint.Entry, queue []containerReq) (*scoreTable, []int) {
	t := &scoreTable{g: g, work: work}
	type classKey struct {
		tags   string
		demand resource.Vector
	}
	index := map[classKey]int{}
	classOf := make([]int, len(queue))
	for i, r := range queue {
		k := classKey{tagKey(r.tags), r.demand}
		ci, ok := index[k]
		if !ok {
			ci = len(t.classes)
			index[k] = ci
			c := scoreClass{tags: r.tags, demand: r.demand, cons: relevantEntries(cons, r.tags)}
			for _, e := range c.cons {
				for _, term := range e.Constraint.Terms {
					for _, a := range term {
						if a.Group != constraint.Node && matchesAtom(a, c.tags) && !slices.Contains(c.groups, a.Group) {
							c.groups = append(c.groups, a.Group)
						}
					}
				}
			}
			t.classes = append(t.classes, c)
		}
		classOf[i] = ci
	}

	nodes := work.Nodes()
	cells := make([]nodeScore, len(t.classes)*len(nodes))
	for ci := range t.classes {
		c := &t.classes[ci]
		c.scores = cells[ci*len(nodes) : (ci+1)*len(nodes)]
		for i, n := range nodes {
			c.scores[i] = t.score(c, n)
			if c.scores[i].clean() {
				c.clean++
			}
		}
		c.nc = c.clean
	}
	if g.order == orderNC {
		t.scope = make([][]bool, len(t.classes))
		for a := range t.classes {
			t.scope[a] = make([]bool, len(t.classes))
			for b := range t.classes {
				// Any atom relating a to b sits in an entry relevant to a.
				t.scope[a][b] = sharesConstraintScope(t.classes[a].cons, t.classes[a].tags, t.classes[b].tags)
			}
		}
	}
	return t, classOf
}

// score computes one cell from scratch: the weighted violation delta of
// placing a class container on the node, blended with the algorithm's
// affinity pull and load-balance terms, plus the utilisation tie-break.
func (t *scoreTable) score(c *scoreClass, n *cluster.Node) nodeScore {
	if !n.Available() || !c.demand.Fits(n.Free()) {
		return nodeScore{}
	}
	delta := placementDeltaMode(t.work, c.cons, c.tags, n.ID, t.g.subjectOnly)
	if t.g.affinityPull > 0 {
		delta -= t.g.affinityPull * affinityPopulation(t.work, c.cons, c.tags, n.ID)
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
// sharing a set with it in one of the class's groups.
func (t *scoreTable) touched(node cluster.NodeID) {
	for ci := range t.classes {
		c := &t.classes[ci]
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
