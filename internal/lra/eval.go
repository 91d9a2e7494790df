package lra

import (
	"cmp"
	"hash/maphash"
	"math"
	"slices"

	"medea/internal/cluster"
	"medea/internal/constraint"
)

// subjectExtent returns the summed violation extent of an atom for a
// subject container on a node in sets, the node's sets of the atom's
// group: one γ per set. selfMatches indicates whether the subject
// container's own tags match the atom's target and it is already counted
// in γ (the ILP's Equations 6–7 exclude the subject container itself from
// the count). When the node belongs to no set of the group, γ is 0, so
// affinity constraints are reported violated and anti-affinity satisfied.
func subjectExtent(state *cluster.Cluster, a *constraint.Atom, sets []cluster.SetID, selfMatches bool) float64 {
	if len(sets) == 0 {
		return a.ViolationExtent(0)
	}
	ext := 0.0
	for _, sid := range sets {
		ext += setExtent(a, state.Gamma(a.Group, sid, a.Target), selfMatches)
	}
	return ext
}

// setExtent is an atom's violation extent in one set whose γ(target) is
// g, the subject container excluded when selfMatches.
func setExtent(a *constraint.Atom, g int, selfMatches bool) float64 {
	if selfMatches {
		g--
	}
	if g < 0 {
		g = 0
	}
	return a.ViolationExtent(g)
}

// Report aggregates constraint-violation statistics over a cluster state,
// in the terms the paper's Figures 9a–9d use: the percentage of containers
// that violate constraints.
type Report struct {
	// Subject is the number of (container, constraint) pairs where the
	// constraint applies to the container.
	Subject int
	// Violated is the number of such pairs with non-zero violation extent.
	Violated int
	// SubjectContainers is the number of containers subject to at least
	// one constraint.
	SubjectContainers int
	// ViolatedContainers is the number of containers violating at least
	// one applicable constraint.
	ViolatedContainers int
	// TotalExtent is the summed weighted violation extent (Equation 8).
	TotalExtent float64
}

// ViolationFraction is the paper's headline metric: the fraction of
// subject containers with at least one violated constraint.
func (r Report) ViolationFraction() float64 {
	if r.SubjectContainers == 0 {
		return 0
	}
	return float64(r.ViolatedContainers) / float64(r.SubjectContainers)
}

// Evaluate checks every allocated container against every active
// constraint and aggregates violations.
func Evaluate(state *cluster.Cluster, entries []constraint.Entry) Report {
	return evaluateResolved(state, ResolveEntries(entries))
}

// evaluateResolved is Evaluate over a list that already went through
// ResolveEntries (or resolver.resolve): a Place resolves its constraints
// once and scores every candidate placement against that one list. It
// prices each (node, tag vector) pair of state once (violators): a pair's
// constraints apply to every container carrying the vector there, and
// the violators' addends are summed in container-ID order, as a score
// sums them.
func evaluateResolved(state *cluster.Cluster, resolved []constraint.Entry) Report {
	var v violators
	v.priceAll(newPlan(state, resolved), state)
	return v.report()
}

// Violation is a container that violates a constraint list and its
// summed weighted violation extent.
type Violation struct {
	Container cluster.ContainerID
	Extent    float64
}

// ViolationRegion prices the violators of a constraint list on one region
// of a state: the given nodes, and every member of every set containing
// one of them in a group an atom of the list names, "node" excepted
// (scoreBase.mark). The audit's hard check prices a batch's region
// before and after it allocates the batch, with one plan: a placement
// changes γ only in the sets containing its nodes, so no container
// outside the region starts or stops violating, and none changes its
// extent.
type ViolationRegion struct{ b scoreBase }

// NewViolationRegion returns the region of nodes on state for resolved,
// which must come from ResolveEntries. IDs that are no node of state are
// skipped.
func NewViolationRegion(state *cluster.Cluster, resolved []constraint.Entry, nodes []cluster.NodeID) *ViolationRegion {
	r := &ViolationRegion{}
	r.b.reset(state, resolved)
	for _, n := range nodes {
		if int(n) >= 0 && int(n) < state.NumNodes() {
			r.b.mark(r.b.region, state, n)
		}
	}
	return r
}

// Violations returns the containers on the region's nodes of state, the
// region's state or one with its nodes and sets, that violate the list,
// by ID, each with its summed weighted extent.
func (r *ViolationRegion) Violations(state *cluster.Cluster) []Violation {
	r.b.work.reset()
	r.b.work.priceRegion(r.b.plan, state, r.b.region)
	return r.b.work.violations()
}

// scoreBase prices the candidate placements of one Place on its
// pre-placement state. A container's extent reads γ of the sets
// containing its node, in the groups its constraints name; a placement
// changes γ only in the sets containing a node it assigns to, its region
// (mark). The first candidate scored is priced by one pass over every
// node of its state, which then serves as the base of every later
// candidate: outside the first candidate's region (dirty) the pass saw
// the pre-placement state. A later candidate re-prices its own region and
// the first one's, and adds every violator of the base elsewhere as the
// base found it. The other containers add nothing, to evaluateResolved or
// here. A decided Place scores one candidate, so it prices its state
// once.
type scoreBase struct {
	plan   *plan
	groups []constraint.GroupName // the groups an atom of cons names, "node" excepted
	primed bool                   // a candidate was scored: base and dirty hold its pass
	base   violators              // of the first candidate's state, on every node
	dirty  []bool                 // by node: the first candidate's region, once primed

	// score's scratch, reused across the candidates of one Place.
	region []bool    // by node: re-price the containers here
	work   violators // of the candidate's state, on the region's nodes
}

// reset makes b a score base of state against cons that has scored no
// candidate, reusing b's buffers.
func (b *scoreBase) reset(state *cluster.Cluster, cons []constraint.Entry) *scoreBase {
	if b.plan == nil {
		b.plan = new(plan)
	}
	b.plan.reset(state, cons)
	b.groups = b.groups[:0]
	for _, e := range cons {
		for _, term := range e.Constraint.Terms {
			for _, a := range term {
				if a.Group != constraint.Node && !slices.Contains(b.groups, a.Group) {
					b.groups = append(b.groups, a.Group)
				}
			}
		}
	}
	n := state.NumNodes()
	b.region = slices.Grow(b.region[:0], n)[:n]
	clear(b.region)
	b.base.reset()
	b.work.reset()
	b.primed = false
	return b
}

// violators lists the containers of a state that violate, on some of its
// nodes, by ID, with their addends. A container's addends depend on its
// node and its tag vector alone, and a node's tag multiset lists its
// distinct vectors, so each (node, vector) pair is priced once and the
// container map is walked only when a pair violates. Every atom of a
// valid list names a subject tag (Atom.Validate), so an untagged
// container, which no multiset lists, violates nothing.
type violators struct {
	pairs   []violPair // the violating pairs, by node
	addends []float64  // pair p's are addends[pairs[p].lo:pairs[p].hi]
	list    []violator // sorted by ID

	// Report's Subject and SubjectContainers over the priced pairs.
	subject, subjectContainers int
}

// violPair is a node and a tag vector whose containers violate there.
type violPair struct {
	node   cluster.NodeID
	tags   []constraint.Tag
	lo, hi int32
}

// violator is a violating container and the index of its pair.
type violator struct {
	id   cluster.ContainerID
	node cluster.NodeID
	pair int32
}

func (v *violators) reset() {
	v.pairs, v.addends, v.list = v.pairs[:0], v.addends[:0], v.list[:0]
	v.subject, v.subjectContainers = 0, 0
}

// priceAll prices every node of state in one pass and lists the
// violators.
func (v *violators) priceAll(p *plan, state *cluster.Cluster) {
	p.begin()
	for n := range state.NumNodes() {
		v.price(p, state, cluster.NodeID(n))
	}
	v.collect(state)
}

// priceRegion prices the nodes of state that in marks in one pass and
// lists their violators.
func (v *violators) priceRegion(p *plan, state *cluster.Cluster, in []bool) {
	p.begin()
	for n, ok := range in {
		if ok {
			v.price(p, state, cluster.NodeID(n))
		}
	}
	v.collect(state)
}

// price prices each tag vector on node. Nodes must come in ascending
// order, so pairs stays by node.
func (v *violators) price(p *plan, state *cluster.Cluster, node cluster.NodeID) {
	state.EachNodeVector(node, func(tags []constraint.Tag, hash uint64, count int) {
		v.pricePair(p, state, node, tags, p.compiled(tags, hash), count)
	})
}

// pricePair prices the count containers of tags on node against p, in
// list order, and keeps the pair when they violate. atoms is tags'
// compile by p.
func (v *violators) pricePair(p *plan, state *cluster.Cluster, node cluster.NodeID, tags []constraint.Tag, atoms vecAtoms, count int) {
	lo := len(v.addends)
	var applied int
	v.addends, applied = p.appendExtents(v.addends, atoms, state, node)
	if applied > 0 {
		v.subject += applied * count
		v.subjectContainers += count
	}
	if len(v.addends) > lo {
		v.pairs = append(v.pairs, violPair{node, tags, int32(lo), int32(len(v.addends))})
	}
}

// collect lists the containers of the violating pairs.
func (v *violators) collect(state *cluster.Cluster) {
	if len(v.pairs) == 0 {
		return
	}
	state.EachContainer(func(id cluster.ContainerID, node cluster.NodeID, tags []constraint.Tag) {
		k, _ := slices.BinarySearchFunc(v.pairs, node, func(p violPair, n cluster.NodeID) int { return cmp.Compare(p.node, n) })
		for ; k < len(v.pairs) && v.pairs[k].node == node; k++ {
			if constraint.SameVector(v.pairs[k].tags, tags) {
				v.list = append(v.list, violator{id, node, int32(k)})
				return
			}
		}
	})
	slices.SortFunc(v.list, func(x, y violator) int { return cmp.Compare(x.id, y.id) })
}

// report is the Report of the priced nodes.
func (v *violators) report() Report {
	rep := Report{Subject: v.subject, SubjectContainers: v.subjectContainers, ViolatedContainers: len(v.list)}
	for i := range v.list {
		addends := v.of(i)
		rep.Violated += len(addends)
		for _, x := range addends {
			rep.TotalExtent += x
		}
	}
	return rep
}

// violations returns the violators with their summed addends.
func (v *violators) violations() []Violation {
	out := make([]Violation, len(v.list))
	for i, x := range v.list {
		out[i].Container = x.id
		for _, a := range v.of(i) {
			out[i].Extent += a
		}
	}
	return out
}

// of returns the addends of violator i.
func (v *violators) of(i int) []float64 {
	p := &v.pairs[v.list[i].pair]
	return v.addends[p.lo:p.hi]
}

// score rates a result: more placed apps first, then fewer violations.
// work is the base's state plus exactly the result's placed applications.
// The sum runs over the same addends in the same order as
// evaluateResolved on work, so it equals that TotalExtent bit for bit
// and no comparison between two scores can flip.
func (b *scoreBase) score(work *cluster.Cluster, res *Result) float64 {
	if b.primed {
		copy(b.region, b.dirty)
		b.markPlaced(b.region, work, res)
		return b.sum(work, res)
	}
	for n := range b.region {
		b.region[n] = true
	}
	s := b.sum(work, res)
	b.base, b.work, b.primed = b.work, b.base, true
	b.dirty = slices.Grow(b.dirty[:0], len(b.region))[:len(b.region)]
	clear(b.dirty)
	b.markPlaced(b.dirty, work, res)
	return s
}

// scoreAndRelease scores res on work, which holds it on top of the base's
// state, and releases it from work again, also when scoring panics.
func (b *scoreBase) scoreAndRelease(work *cluster.Cluster, res *Result) float64 {
	defer releasePlaced(work, res)
	return b.score(work, res)
}

// markPlaced adds the region of every node res assigns a placed
// application's container to in.
func (b *scoreBase) markPlaced(in []bool, work *cluster.Cluster, res *Result) {
	for _, p := range res.Placements {
		if !p.Placed {
			continue
		}
		for _, a := range p.Assignments {
			// Even when a's node is in the region already, as a member of
			// another assigned node's set: sets of a group may overlap,
			// and the node's other sets changed too.
			b.mark(in, work, a.Node)
		}
	}
}

// mark adds node, and every member of every set containing it in the
// base's groups, to in.
func (b *scoreBase) mark(in []bool, work *cluster.Cluster, node cluster.NodeID) {
	in[node] = true
	for _, g := range b.groups {
		for _, sid := range work.SetsOfNode(g, node) {
			for _, n := range work.SetMembers(g, sid) {
				in[n] = true
			}
		}
	}
}

// sum lists the violators of work on the region's nodes, where the
// placed containers are, and merges them in ID order with the base's
// violators outside the region, which add the base's addends.
func (b *scoreBase) sum(work *cluster.Cluster, res *Result) float64 {
	b.work.reset()
	b.work.priceRegion(b.plan, work, b.region)
	total := 0.0
	for i, j := 0, 0; i < len(b.base.list) || j < len(b.work.list); {
		var addends []float64
		if j == len(b.work.list) || i < len(b.base.list) && b.base.list[i].id < b.work.list[j].id {
			if !b.region[b.base.list[i].node] {
				addends = b.base.of(i)
			}
			i++ // a violator in the region was re-priced on work
		} else {
			addends = b.work.of(j)
			j++
		}
		for _, x := range addends {
			total += x
		}
	}
	return float64(res.PlacedApps()) - total/1e6
}

// ResolveEntries returns the entries in the form the evaluator scores
// against: operator overrides applied (constraint.ResolveConflicts) and
// duplicate constraints dropped (dedupEntries).
func ResolveEntries(entries []constraint.Entry) []constraint.Entry {
	return dedupEntries(constraint.ResolveConflicts(entries))
}

// dedupEntries drops every constraint equal to an earlier one
// (sameConstraint), into a new list.
func dedupEntries(entries []constraint.Entry) []constraint.Entry {
	return new(resolver).dedup(entries)
}

// resolver holds the buffers a scheduler flattens and resolves a Place's
// constraint list in, reused from Place to Place: the list before
// resolution (ResolveConflicts' input), dedup's hash index and the
// resolved list. The list resolve returns is the resolver's until its
// next resolve.
type resolver struct {
	flat  []constraint.Entry
	first map[uint64]int // hash → index in out of the first entry kept with it
	out   []constraint.Entry
}

// resolve combines the active entries (deployed LRAs + operator) with
// the constraints of the newly submitted applications into one resolved,
// deduplicated list, in r's buffers.
func (r *resolver) resolve(apps []*Application, active []constraint.Entry) []constraint.Entry {
	n := len(active)
	for _, a := range apps {
		n += len(a.Constraints)
	}
	r.flat = append(slices.Grow(r.flat[:0], n), active...)
	for _, a := range apps {
		for _, c := range a.Constraints {
			r.flat = append(r.flat, constraint.Entry{
				AppID: a.ID, Source: constraint.SourceApplication, Constraint: c,
			})
		}
	}
	return r.dedup(constraint.ResolveConflicts(r.flat))
}

// dedup drops every constraint equal to an earlier one (sameConstraint)
// into r's resolved list. Application templates (e.g. "no more than 2
// hb_rs per node") repeat verbatim across every instance of an
// application type; evaluating one copy is semantically equivalent and
// keeps scheduling cost independent of the number of deployed instances.
// A hash of each constraint finds the earlier ones it may equal, so no
// constraint is rendered as text.
func (r *resolver) dedup(entries []constraint.Entry) []constraint.Entry {
	if r.first == nil {
		r.first = make(map[uint64]int, len(entries))
	} else {
		clear(r.first)
	}
	out := slices.Grow(r.out[:0], len(entries))
	for _, e := range entries {
		h := hashConstraint(e.Constraint)
		if i, ok := r.first[h]; ok {
			same := func(o constraint.Entry) bool { return sameConstraint(o.Constraint, e.Constraint) }
			if same(out[i]) || slices.ContainsFunc(out, same) { // the scan only on a hash collision
				continue
			}
		} else {
			r.first[h] = len(out)
		}
		out = append(out, e)
	}
	r.out = out
	return out
}

// sameConstraint reports whether a and b are the same constraint: equal
// effective weights, and the same terms in the same order, whose atoms
// have equal bounds and groups and the same subject and target tag
// multisets. Every pair that Constraint.String renders alike is equal
// here, except where the text aliases: Expr{"a&b"} against
// Expr{"a", "b"}, or a NaN weight, which equals nothing.
func sameConstraint(a, b constraint.Constraint) bool {
	if a.EffectiveWeight() != b.EffectiveWeight() || len(a.Terms) != len(b.Terms) {
		return false
	}
	for t, term := range a.Terms {
		if len(term) != len(b.Terms[t]) {
			return false
		}
		for k, x := range term {
			y := b.Terms[t][k]
			if x.Min != y.Min || x.Max != y.Max || x.Group != y.Group ||
				!constraint.SameVector(x.Subject, y.Subject) || !constraint.SameVector(x.Target, y.Target) {
				return false
			}
		}
	}
	return true
}

// dedupSeed keys hashConstraint's group names. The seed changes between
// processes, which moves no output: a hash only nominates the earlier
// entries dedupEntries compares with sameConstraint.
var dedupSeed = maphash.MakeSeed()

// hashConstraint hashes what sameConstraint compares, so equal
// constraints hash alike; an expression is hashed as a tag multiset
// (constraint.VectorHash).
func hashConstraint(c constraint.Constraint) uint64 {
	h := mix(0, math.Float64bits(c.EffectiveWeight()))
	for _, term := range c.Terms {
		h = mix(h, uint64(len(term)))
		for _, a := range term {
			h = mix(h, uint64(a.Min))
			h = mix(h, uint64(a.Max))
			h = mix(h, maphash.String(dedupSeed, string(a.Group)))
			h = mix(h, constraint.VectorHash(a.Subject))
			h = mix(h, constraint.VectorHash(a.Target))
		}
	}
	return h
}

// mix folds x into h (a multiply-xorshift step).
func mix(h, x uint64) uint64 {
	h = (h ^ x) * 0x9e3779b97f4a7c15
	return h ^ h>>32
}
