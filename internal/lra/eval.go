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
		g := state.Gamma(a.Group, sid, a.Target)
		if selfMatches {
			g--
		}
		if g < 0 {
			g = 0
		}
		ext += a.ViolationExtent(g)
	}
	return ext
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
// ResolveEntries (or flattenConstraints): a Place resolves its constraints
// once and scores every candidate placement against that one list.
func evaluateResolved(state *cluster.Cluster, resolved []constraint.Entry) Report {
	var rep Report
	var buf [16]float64
	p, ring := newPlan(resolved), vecRing{}
	for _, id := range state.ContainerIDs() {
		node, ok := state.ContainerNode(id)
		if !ok {
			continue
		}
		tags, _ := state.ContainerTags(id)
		addends, applied := p.atoms(ring.vector(p, tags)).appendExtents(buf[:0], state, node)
		rep.Subject += applied
		rep.Violated += len(addends)
		if applied > 0 {
			rep.SubjectContainers++
		}
		if len(addends) > 0 {
			rep.ViolatedContainers++
		}
		for _, x := range addends {
			rep.TotalExtent += x
		}
	}
	return rep
}

// scoreBase is one evaluateResolved sweep of a Place's pre-placement
// state, kept per container, that the Place prices each of its candidate
// placements against. A container's extent reads γ of the sets containing
// its node, in the groups its constraints name; a placement changes γ
// only in the sets containing a node it assigns to. So score re-prices
// the containers on those sets' members and adds every other container's
// addends as the sweep found them.
//
// What stays fixed for the whole Place is compiled once: plan holds, per
// distinct tag vector of the base's containers and of the placed ones,
// the atoms that vector is the subject of, and a container names its
// vector by index.
type scoreBase struct {
	plan   *plan
	batch  []seenVec              // the placed containers' vectors met so far
	groups []constraint.GroupName // the groups an atom of cons names, "node" excepted
	ids    []cluster.ContainerID  // sorted, as evaluateResolved walks them
	nodes  []cluster.NodeID       // by ids index, like vec
	vec    []int32                // by ids index: the container's vector in plan
	// ids[i]'s addends are addends[off[i]:off[i+1]]: its non-zero
	// weighted extents, in the order evaluateResolved adds them.
	off     []int
	addends []float64

	// score's scratch, reused across the candidates of one Place.
	region []bool // by node: re-price the containers here
	placed []Assignment
	buf    []float64
}

// newScoreBase sweeps state once against the batch's flattened constraint
// list (flattenConstraints).
func newScoreBase(state *cluster.Cluster, cons []constraint.Entry) *scoreBase {
	b := &scoreBase{plan: newPlan(cons), ids: state.ContainerIDs(), region: make([]bool, state.NumNodes())}
	for _, e := range cons {
		for _, term := range e.Constraint.Terms {
			for _, a := range term {
				if a.Group != constraint.Node && !slices.Contains(b.groups, a.Group) {
					b.groups = append(b.groups, a.Group)
				}
			}
		}
	}
	b.nodes = make([]cluster.NodeID, len(b.ids))
	b.vec = make([]int32, len(b.ids))
	b.off = make([]int, len(b.ids)+1)
	var ring vecRing
	for i, id := range b.ids {
		b.nodes[i], _ = state.ContainerNode(id)
		tags, _ := state.ContainerTags(id)
		b.vec[i] = ring.vector(b.plan, tags)
		b.addends, _ = b.plan.atoms(b.vec[i]).appendExtents(b.addends, state, b.nodes[i])
		b.off[i+1] = len(b.addends)
	}
	return b
}

// placedVector returns the plan vector of a placed container's tags,
// compiling it on first sight: a Place meets its batch's few container
// groups again in every placement it prices.
func (b *scoreBase) placedVector(tags []constraint.Tag) int32 {
	for _, s := range b.batch {
		if constraint.SameVector(s.tags, tags) {
			return s.v
		}
	}
	v := b.plan.add(tags)
	b.batch = append(b.batch, seenVec{tags, v})
	return v
}

// score rates a result: more placed apps first, then fewer violations.
// work is the base's state plus exactly the result's placed applications.
// The sum runs over the same addends in the same order as an
// evaluateResolved sweep of work, so it equals the sweep's TotalExtent
// bit for bit and no comparison between two scores can flip.
func (b *scoreBase) score(work *cluster.Cluster, res *Result) float64 {
	clear(b.region)
	b.placed = b.placed[:0]
	for _, p := range res.Placements {
		if !p.Placed {
			continue
		}
		for _, a := range p.Assignments {
			b.placed = append(b.placed, a)
			// Even when a's node is in the region already, as a member of
			// another assigned node's set: sets of a group may overlap,
			// and the node's other sets changed too.
			b.mark(work, a.Node)
		}
	}
	return b.sum(work, res)
}

// scoreAndRelease scores res on work, which holds it on top of the base's
// state, and releases it from work again, also when scoring panics.
func (b *scoreBase) scoreAndRelease(work *cluster.Cluster, res *Result) float64 {
	defer releasePlaced(work, res)
	return b.score(work, res)
}

// mark adds node, and every member of every set containing it in the
// base's groups, to the region.
func (b *scoreBase) mark(work *cluster.Cluster, node cluster.NodeID) {
	b.region[node] = true
	for _, g := range b.groups {
		for _, sid := range work.SetsOfNode(g, node) {
			for _, n := range work.SetMembers(g, sid) {
				b.region[n] = true
			}
		}
	}
}

// sum prices the base's containers and the placed ones, merged in ID
// order: a container in the region re-priced on work, every other one by
// the base's addends.
func (b *scoreBase) sum(work *cluster.Cluster, res *Result) float64 {
	slices.SortFunc(b.placed, func(x, y Assignment) int { return cmp.Compare(x.Container, y.Container) })
	total := 0.0
	for i, j := 0, 0; i < len(b.ids) || j < len(b.placed); {
		var addends []float64
		if j == len(b.placed) || i < len(b.ids) && b.ids[i] < b.placed[j].Container {
			if b.region[b.nodes[i]] {
				b.buf, _ = b.plan.atoms(b.vec[i]).appendExtents(b.buf[:0], work, b.nodes[i])
				addends = b.buf
			} else {
				addends = b.addends[b.off[i]:b.off[i+1]]
			}
			i++
		} else {
			a := b.placed[j]
			b.buf, _ = b.plan.atoms(b.placedVector(a.Tags)).appendExtents(b.buf[:0], work, a.Node)
			addends = b.buf
			j++
		}
		for _, x := range addends {
			total += x
		}
	}
	return float64(res.PlacedApps()) - total/1e6
}

// flattenConstraints combines the active entries (deployed LRAs +
// operator) with the constraints of the newly submitted applications into
// one resolved, deduplicated list.
func flattenConstraints(apps []*Application, active []constraint.Entry) []constraint.Entry {
	n := len(active)
	for _, a := range apps {
		n += len(a.Constraints)
	}
	entries := append(make([]constraint.Entry, 0, n), active...)
	for _, a := range apps {
		for _, c := range a.Constraints {
			entries = append(entries, constraint.Entry{
				AppID: a.ID, Source: constraint.SourceApplication, Constraint: c,
			})
		}
	}
	return ResolveEntries(entries)
}

// ResolveEntries returns the entries in the form the evaluator scores
// against: operator overrides applied (constraint.ResolveConflicts) and
// duplicate constraints dropped (dedupEntries).
func ResolveEntries(entries []constraint.Entry) []constraint.Entry {
	return dedupEntries(constraint.ResolveConflicts(entries))
}

// dedupEntries drops every constraint equal to an earlier one
// (sameConstraint). Application templates (e.g. "no more than 2 hb_rs per
// node") repeat verbatim across every instance of an application type;
// evaluating one copy is semantically equivalent and keeps scheduling
// cost independent of the number of deployed instances. A hash of each
// constraint finds the earlier ones it may equal, so no constraint is
// rendered as text.
func dedupEntries(entries []constraint.Entry) []constraint.Entry {
	first := make(map[uint64]int, len(entries)) // hash → index in out of the first entry kept with it
	out := make([]constraint.Entry, 0, len(entries))
	for _, e := range entries {
		h := hashConstraint(e.Constraint)
		if i, ok := first[h]; ok {
			same := func(o constraint.Entry) bool { return sameConstraint(o.Constraint, e.Constraint) }
			if same(out[i]) || slices.ContainsFunc(out, same) { // the scan only on a hash collision
				continue
			}
		} else {
			first[h] = len(out)
		}
		out = append(out, e)
	}
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

// ViolationFor returns the summed weighted violation extent of the
// constraints applicable to one allocated container (0 for unknown IDs or
// when all applicable constraints are satisfied). resolved must come from
// ResolveEntries: callers sweep whole clusters with one constraint list,
// so resolving it is theirs to do once. The audit layer uses it to decide
// whether a proposed placement introduces new hard-constraint violations.
func ViolationFor(state *cluster.Cluster, resolved []constraint.Entry, id cluster.ContainerID) float64 {
	node, ok := state.ContainerNode(id)
	if !ok {
		return 0
	}
	tags, _ := state.ContainerTags(id)
	var buf [16]float64
	addends, _ := compileAtoms(nil, resolved, tags, false).appendExtents(buf[:0], state, node)
	total := 0.0
	for _, x := range addends {
		total += x
	}
	return total
}
