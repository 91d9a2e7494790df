package lra

import (
	"cmp"
	"slices"

	"medea/internal/cluster"
	"medea/internal/constraint"
)

// atomRef is one atom of a constraint list that a container tag vector
// meets, with the two matches evaluated once, when the vector is
// compiled: whether the vector is the atom's subject and whether it is
// one of the atom's targets.
type atomRef struct {
	atom    *constraint.Atom
	weight  float64 // the owning constraint's EffectiveWeight
	entry   int32   // the owning entry's index in the list
	term    int32   // the DNF term within that entry
	pos     int32   // the atom's index among the list's atoms, in list order
	subject bool
	target  bool
}

// vecAtoms is one tag vector's compiled form of a constraint list: the
// atoms it meets, in list order — entry by entry, term by term. The
// kernels below walk it in place of the whole list, so a Place matches
// each atom against a tag vector once, not once per node it prices.
type vecAtoms []atomRef

// compileAtoms appends to dst the atoms of cons that a container with
// tags is the subject or a target of: the form a placement's delta
// needs. Pricing violations needs the subject atoms alone (plan.compile).
func compileAtoms(dst vecAtoms, cons []constraint.Entry, tags []constraint.Tag) vecAtoms {
	pos := int32(0)
	for ei := range cons {
		c := &cons[ei].Constraint // an Entry is too large to copy per atom
		w := c.EffectiveWeight()
		for ti, term := range c.Terms {
			for k := range term {
				a := &term[k]
				subject, target := a.Subject.Matches(tags), a.Target.Matches(tags)
				if subject || target {
					dst = append(dst, atomRef{atom: a, weight: w, entry: int32(ei), term: int32(ti), pos: pos, subject: subject, target: target})
				}
				pos++
			}
		}
	}
	return dst
}

// appendExtents is the one weighted-extent kernel: it appends the
// non-zero weighted extents of the constraints that apply to a container
// of v on node — those with an atom v is the subject of — in list order,
// and reports how many apply. A DNF constraint's extent is the least,
// over its terms with such an atom, of those atoms' summed extents: the
// constraint holds when any term does. Each addend is rounded before any
// sum (no fused multiply-add), so every caller that adds them in order
// gets the same bits. v must come from p, which reads each γ through its
// pass memo (gamma).
func (p *plan) appendExtents(dst []float64, v vecAtoms, state *cluster.Cluster, node cluster.NodeID) ([]float64, int) {
	applied := 0
	for i := 0; i < len(v); {
		entry, best := v[i].entry, -1.0
		for i < len(v) && v[i].entry == entry {
			term, applies, sum := v[i].term, false, 0.0
			for ; i < len(v) && v[i].entry == entry && v[i].term == term; i++ {
				if r := &v[i]; r.subject {
					applies = true
					sum += p.subjectExtent(state, r, state.SetsOfNode(r.atom.Group, node))
				}
			}
			if applies && (best < 0 || sum < best) {
				best = sum
			}
		}
		if best < 0 {
			continue // v is only a target of this constraint
		}
		applied++
		if best > 0 {
			dst = append(dst, float64(best*v[i-1].weight))
		}
	}
	return dst, applied
}

// subjectExtent is subjectExtent(state, r.atom, sets, r.target), each γ
// read through the pass memo.
func (p *plan) subjectExtent(state *cluster.Cluster, r *atomRef, sets []cluster.SetID) float64 {
	if len(sets) == 0 {
		return r.atom.ViolationExtent(0)
	}
	ext := 0.0
	for _, sid := range sets {
		ext += setExtent(r.atom, p.gamma(state, r, sid), r.target)
	}
	return ext
}

// gamma is γ(target) of r's atom in set sid of its group. A pass reads it
// once per atom and set outside the "node" group, whose sets are single
// nodes: later reads in the pass take it from the memo.
func (p *plan) gamma(state *cluster.Cluster, r *atomRef, sid cluster.SetID) int {
	c := p.memo.at(int(r.pos), sid)
	if c == nil {
		return state.Gamma(r.atom.Group, sid, r.atom.Target)
	}
	if c.stamp != p.memo.epoch {
		c.val, c.stamp = state.Gamma(r.atom.Group, sid, r.atom.Target), p.memo.epoch
	}
	return c.val
}

// delta is the increase in weighted violation extent caused by
// tentatively placing a container of v on node, under the current
// state. It accounts for both directions of impact:
//
//  1. the candidate container as a *subject* of constraints, and
//  2. the candidate container as a *target* that changes γ for containers
//     already placed (including tentatively placed ones of this round).
//
// Greedy algorithms minimise this quantity when choosing nodes. When
// subjectOnly is set, only direction 1 is scored: the candidate's impact
// as a *target* of already-placed subjects is ignored. This mirrors
// Kubernetes' semantics, where a deployed pod's affinity never constrains
// future pods (J-Kube, §7.1); Medea's algorithms score both directions.
// v must come from compileAtoms.
//
// An atom's delta at a node reads γ of the node's sets in the atom's
// group and nothing else of the node. So at a node in exactly one set of
// a group other than "node", an atom's delta is its delta at that set,
// and memo, when not nil, keeps it: every node of a rack is priced by
// one reading of the rack per atom and state epoch (setMemo). The "node"
// group's sets are single nodes, so a memo would never hit there; those
// atoms, unless dormant (setMemo.wake), and nodes in no or several sets
// of a group, are priced directly. A memo serves one v and one
// subjectOnly setting; a nil memo prices every atom directly.
func (v vecAtoms) delta(state *cluster.Cluster, node cluster.NodeID, subjectOnly bool, memo *setMemo[float64]) float64 {
	total := 0.0
	for i := 0; i < len(v); {
		entry, w := v[i].entry, v[i].weight
		bestTerm, found := 0.0, false
		for i < len(v) && v[i].entry == entry {
			term, applies, sum := v[i].term, false, 0.0
			for ; i < len(v) && v[i].entry == entry && v[i].term == term; i++ {
				r := &v[i]
				target := r.target && !subjectOnly
				if !r.subject && !target {
					continue
				}
				applies = true
				sets := state.SetsOfNode(r.atom.Group, node)
				if c := memo.cell(i, sets); c != nil {
					if c.stamp != memo.epoch {
						c.val, c.stamp = r.delta(state, sets, target), memo.epoch
					}
					sum += c.val
				} else {
					sum += r.delta(state, sets, target)
				}
			}
			if applies && (!found || sum < bestTerm) {
				bestTerm, found = sum, true
			}
		}
		if found {
			total += w * bestTerm
		}
	}
	return total
}

// gammaAtom is the three γ an atom reads in one set (Cluster.GammaAtom).
type gammaAtom struct{ target, subject, both int }

// delta is one atom's exact extent change caused by the tentative
// placement on a node in sets, the node's sets of the atom's group;
// target says whether to count the container as one of the atom's
// targets. Each set is read once: its γ(target) serves the subject
// extent, and its three γ the target part. The subject extent is summed
// over all sets before any target part is added, as subjectExtent and
// the target loop did it when each read the sets on its own.
func (r *atomRef) delta(state *cluster.Cluster, sets []cluster.SetID, target bool) float64 {
	a := r.atom
	if !target {
		// The new container's own cardinality test at this node. Self is
		// excluded, and the container is not yet in γ, so γ is used as-is.
		return subjectExtent(state, a, sets, false)
	}
	var buf [8]gammaAtom
	gs := buf[:0]
	if len(sets) > len(buf) {
		gs = make([]gammaAtom, 0, len(sets))
	}
	for _, sid := range sets {
		t, s, b := state.GammaAtom(a.Group, sid, a.Subject, a.Target)
		gs = append(gs, gammaAtom{t, s, b})
	}
	delta := 0.0
	if r.subject {
		ext := a.ViolationExtent(0) // the node is in no set: γ is 0
		if len(gs) > 0 {
			ext = 0
			for _, g := range gs {
				ext += a.ViolationExtent(g.target)
			}
		}
		delta += ext
	}
	// Impact on already-placed subjects sharing a set with the node.
	for _, g := range gs {
		// Subjects that match the target see γ go from γ-1 to γ; others
		// from γ to γ+1.
		if g.both > 0 {
			before, after := g.target-1, g.target
			if before < 0 {
				before = 0
			}
			delta += float64(g.both) * (a.ViolationExtent(after) - a.ViolationExtent(before))
		}
		if n := g.subject - g.both; n > 0 {
			delta += float64(n) * (a.ViolationExtent(g.target+1) - a.ViolationExtent(g.target))
		}
	}
	return delta
}

// setMemo keeps, for one compiled vecAtoms, a value of each atom at each
// set of its group, valid for one state epoch: an entry counts only while
// its stamp equals the epoch, so bumping the epoch, after the state
// changed, drops every entry at once. It is a slice indexed by atom
// offset plus SetID, sized with Cluster.NumSets; nothing is hashed. The
// score table keeps deltas in it (vecAtoms.delta), a plan γ (plan.gamma).
//
// An atom whose subject and target no container carries (Cluster.Carries)
// reads γ 0 in every set: it is dormant, and its value is the same at
// every node in exactly one set of its group, the "node" group's
// included. wake marks the dormant atoms for the state of the epoch, and
// each keeps one entry (one) that serves all those nodes.
type setMemo[V any] struct {
	epoch uint32
	off   []int32 // atom i's entries are cells[off[i]:], by SetID; -1 for "node" atoms
	cells []memoCell[V]
	// dormant[i] marks atom i dormant as of the last wake; one[i] is its
	// entry then. Both are indexed like the vecAtoms.
	dormant []bool
	one     []memoCell[V]
}

type memoCell[V any] struct {
	stamp uint32
	val   V
}

// reset lays the memo out for v on state, reusing its buffers, with no
// atom dormant and every entry cleared, and starts its first epoch.
func (m *setMemo[V]) reset(state *cluster.Cluster, v vecAtoms) {
	m.off = m.off[:0]
	n := 0
	for _, r := range v {
		if r.atom.Group == constraint.Node {
			m.off = append(m.off, -1)
			continue
		}
		m.off = append(m.off, int32(n))
		n += state.NumSets(r.atom.Group)
	}
	m.cells = slices.Grow(m.cells[:0], n)[:n]
	m.dormant = slices.Grow(m.dormant[:0], len(v))[:len(v)]
	m.one = slices.Grow(m.one[:0], len(v))[:len(v)]
	clear(m.cells)
	clear(m.dormant)
	clear(m.one)
	m.epoch = 1 // above every cleared stamp
}

// wake marks the atoms of v, the memo's vecAtoms, dormant whose subject
// and target state carries neither of. A memo that prices deltas is
// woken on the state of each epoch, before the epoch's first entry is
// computed: a tentative allocation can wake an atom, and its rollback
// put it to sleep again. A memo never woken has no dormant atom.
func (m *setMemo[V]) wake(state *cluster.Cluster, v vecAtoms) {
	for i := range v {
		a := v[i].atom
		m.dormant[i] = !state.Carries(a.Subject) && !state.Carries(a.Target)
	}
}

// cell returns atom i's entry for a node in sets, or nil when the atom
// is priced directly there: no memo, a node in no or several sets of the
// atom's group, or a "node" atom that is not dormant.
func (m *setMemo[V]) cell(i int, sets []cluster.SetID) *memoCell[V] {
	if m == nil || len(sets) != 1 {
		return nil
	}
	if m.dormant[i] {
		return &m.one[i]
	}
	return m.at(i, sets[0])
}

// at returns atom i's entry for set sid, or nil for a "node" atom.
func (m *setMemo[V]) at(i int, sid cluster.SetID) *memoCell[V] {
	if m.off[i] < 0 {
		return nil
	}
	return &m.cells[int(m.off[i])+int(sid)]
}

// plan is a constraint list compiled for the tag vectors of the
// containers a pricing pass prices (violators): the atoms a vector is the
// subject of. A plan compiles each distinct vector once: its cache finds
// an earlier compile by the vector's VectorHash, which the vector's tag
// multiset stores, and SameVector confirms it. A pass reads each γ of a
// non-"node" atom once (gamma). A scheduler reuses a plan for the lists
// of its Places (reset): every buffer it keeps is rewritten before it is
// read, and its cache and memo start empty for each list.
//
// A vector is compiled through an index of the list, built with the
// plan: every atom is listed under one tag of its subject, and since a
// vector the atom's subject matches carries every tag of the subject, a
// vector looks up its own tags and tests only the atoms listed there.
type plan struct {
	cons []constraint.Entry
	all  []atomRef // the list's atoms in list order, subject and target unset
	// The index: tag k of the sorted tags lists the atoms at
	// all[at[start[k]:start[k+1]]]. always holds the atoms with an empty
	// subject, which every vector matches (Atom.Validate refuses them).
	tags   []constraint.Tag
	start  []int32
	at     []int32
	always []int32
	found  []int32 // compile's scratch

	// The compile cache: vecs[byHash[h]] is the first vector of hash h
	// compiled, and its atoms are atoms[lo:hi].
	byHash map[uint64]int32
	vecs   []compiledVec
	atoms  vecAtoms

	// The pass memo: γ(target) by atom position in all and SetID.
	memo setMemo[int]
}

// compiledVec is a vector of a plan's compile cache.
type compiledVec struct {
	tags   []constraint.Tag
	lo, hi int32
}

// newPlan compiles cons for passes over state or clones of it.
func newPlan(state *cluster.Cluster, cons []constraint.Entry) *plan {
	return new(plan).reset(state, cons)
}

// reset compiles the plan's index of cons, reusing its buffers, empties
// its cache and lays its memo out for state's sets, every stamp cleared.
func (p *plan) reset(state *cluster.Cluster, cons []constraint.Entry) *plan {
	n := 0
	for _, e := range cons {
		for _, term := range e.Constraint.Terms {
			n += len(term)
		}
	}
	p.cons = cons
	p.all, p.at, p.always = slices.Grow(p.all[:0], n), slices.Grow(p.at[:0], n), p.always[:0]
	for ei := range cons {
		c := &cons[ei].Constraint
		w := c.EffectiveWeight()
		for ti, term := range c.Terms {
			for k := range term {
				p.all = append(p.all, atomRef{atom: &term[k], weight: w, entry: int32(ei), term: int32(ti), pos: int32(len(p.all))})
			}
		}
	}
	for pos, r := range p.all {
		if len(r.atom.Subject) == 0 {
			p.always = append(p.always, int32(pos))
		} else {
			p.at = append(p.at, int32(pos))
		}
	}
	// Stable: each tag's atoms stay in list order.
	slices.SortStableFunc(p.at, func(x, y int32) int { return cmp.Compare(p.listedUnder(x), p.listedUnder(y)) })
	p.tags, p.start = slices.Grow(p.tags[:0], len(p.at)), slices.Grow(p.start[:0], len(p.at)+1)
	for i, pos := range p.at {
		if t := p.listedUnder(pos); i == 0 || t != p.tags[len(p.tags)-1] {
			p.tags = append(p.tags, t)
			p.start = append(p.start, int32(i))
		}
	}
	p.start = append(p.start, int32(len(p.at)))

	// A fresh cache has room for the vectors of a few racks, an audit
	// region's; a pass over ilp_steady's 64 nodes meets 79 (of 193
	// pairs) and grows it once.
	if p.byHash == nil {
		p.byHash = make(map[uint64]int32, 64)
	}
	clear(p.byHash)
	clear(p.vecs) // lets go of the last list's tag vectors
	p.vecs, p.atoms = slices.Grow(p.vecs[:0], 64), p.atoms[:0]
	p.memo.reset(state, p.all)
	return p
}

// listedUnder is the tag the index lists atom pos under: the first of its
// subject. (The tag the fewest subjects carry would test fewer atoms per
// vector, but it costs a count per Place and a longer tag list to search,
// and measured no faster.)
func (p *plan) listedUnder(pos int32) constraint.Tag { return p.all[pos].atom.Subject[0] }

// compile appends to dst the atoms tags is the subject of, exactly as
// compileAtoms(dst, p.cons, tags) appends them: the atoms listed
// under each distinct tag of tags that its subject matches, visited in
// list order.
func (p *plan) compile(dst vecAtoms, tags []constraint.Tag) vecAtoms {
	found := append(p.found[:0], p.always...)
	for i, t := range tags {
		if slices.Contains(tags[:i], t) {
			continue // its atoms were found at its first occurrence
		}
		k, ok := slices.BinarySearch(p.tags, t)
		if !ok {
			continue
		}
		for _, pos := range p.at[p.start[k]:p.start[k+1]] {
			if p.all[pos].atom.Subject.Matches(tags) {
				found = append(found, pos)
			}
		}
	}
	slices.Sort(found)
	for _, pos := range found {
		r := p.all[pos]
		r.subject, r.target = true, r.atom.Target.Matches(tags)
		dst = append(dst, r)
	}
	p.found = found
	return dst
}

// compiled returns compile(nil, tags), compiling each distinct vector
// once per plan. hash is tags' VectorHash: it finds the vector's earlier
// compile, which SameVector confirms. A vector whose hash another vector
// took first is compiled anew on every call.
func (p *plan) compiled(tags []constraint.Tag, hash uint64) vecAtoms {
	i, ok := p.byHash[hash]
	if ok {
		if v := &p.vecs[i]; constraint.SameVector(v.tags, tags) {
			return p.atoms[v.lo:v.hi:v.hi]
		}
	}
	lo := len(p.atoms)
	p.atoms = p.compile(p.atoms, tags)
	hi := len(p.atoms)
	if !ok {
		p.byHash[hash] = int32(len(p.vecs))
		p.vecs = append(p.vecs, compiledVec{tags, int32(lo), int32(hi)})
	}
	return p.atoms[lo:hi:hi]
}

// begin starts a pricing pass: the γ the memo holds were read on a state
// that may differ from the pass's, so they are dropped.
func (p *plan) begin() { p.memo.epoch++ }
