package lra

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"medea/internal/cluster"
	"medea/internal/constraint"
)

// subjectExtent returns the summed violation extent of an atom for a
// subject container on node: one γ per node set of the atom's group
// containing the node. selfMatches indicates whether the subject
// container's own tags match the atom's target and it is already counted
// in γ (the ILP's Equations 6–7 exclude the subject container itself from
// the count). When the node belongs to no set of the group, γ is 0, so
// affinity constraints are reported violated and anti-affinity satisfied.
func subjectExtent(state *cluster.Cluster, a constraint.Atom, node cluster.NodeID, selfMatches bool) float64 {
	sets := state.SetsOfNode(a.Group, node)
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

// constraintExtent evaluates a (possibly compound, DNF) constraint for a
// subject container with the given tags on node. A term applies to the
// container when the container matches the subject of at least one of its
// atoms; non-matching atoms within a term are skipped. The constraint's
// extent is the minimum over applicable terms of the summed atom extents
// (the DNF is satisfied when any term is). The second result reports
// whether the constraint applies to this container at all.
func constraintExtent(state *cluster.Cluster, c constraint.Constraint, node cluster.NodeID, tags []constraint.Tag) (float64, bool) {
	applies := false
	best := -1.0
	for _, term := range c.Terms {
		termApplies := false
		sum := 0.0
		for _, a := range term {
			if !a.Subject.Matches(tags) {
				continue
			}
			termApplies = true
			sum += subjectExtent(state, a, node, a.Target.Matches(tags))
		}
		if !termApplies {
			continue
		}
		applies = true
		if best < 0 || sum < best {
			best = sum
		}
	}
	if !applies {
		return 0, false
	}
	return best, true
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
	for _, id := range state.ContainerIDs() {
		node, ok := state.ContainerNode(id)
		if !ok {
			continue
		}
		tags, _ := state.ContainerTags(id)
		addends, applied := appendExtents(buf[:0], state, resolved, node, tags)
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
type scoreBase struct {
	cons   []constraint.Entry
	groups []constraint.GroupName // the groups an atom of cons names, "node" excepted
	ids    []cluster.ContainerID  // sorted, as evaluateResolved walks them
	nodes  []cluster.NodeID       // by ids index, like tags
	tags   [][]constraint.Tag
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
	b := &scoreBase{cons: cons, ids: state.ContainerIDs(), region: make([]bool, state.NumNodes())}
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
	b.tags = make([][]constraint.Tag, len(b.ids))
	b.off = make([]int, len(b.ids)+1)
	for i, id := range b.ids {
		b.nodes[i], _ = state.ContainerNode(id)
		b.tags[i], _ = state.ContainerTags(id)
		b.addends, _ = appendExtents(b.addends, state, cons, b.nodes[i], b.tags[i])
		b.off[i+1] = len(b.addends)
	}
	return b
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
				b.buf, _ = appendExtents(b.buf[:0], work, b.cons, b.nodes[i], b.tags[i])
				addends = b.buf
			} else {
				addends = b.addends[b.off[i]:b.off[i+1]]
			}
			i++
		} else {
			a := b.placed[j]
			b.buf, _ = appendExtents(b.buf[:0], work, b.cons, a.Node, a.Tags)
			addends = b.buf
			j++
		}
		for _, x := range addends {
			total += x
		}
	}
	return float64(res.PlacedApps()) - total/1e6
}

// appendExtents is the one weighted-extent kernel: it appends the
// non-zero weighted extents of the constraints of cons that apply to a
// container with tags on node, in cons order, and reports how many apply.
// Each addend is rounded before any sum (no fused multiply-add), so every
// caller that adds them in order gets the same bits.
func appendExtents(dst []float64, state *cluster.Cluster, cons []constraint.Entry, node cluster.NodeID, tags []constraint.Tag) ([]float64, int) {
	applied := 0
	for i := range cons {
		c := &cons[i].Constraint // an Entry is too large to copy per container
		ext, applies := constraintExtent(state, *c, node, tags)
		if !applies {
			continue
		}
		applied++
		if ext > 0 {
			dst = append(dst, float64(ext*c.EffectiveWeight()))
		}
	}
	return dst, applied
}

// placementDelta estimates the increase in weighted violation extent
// caused by tentatively placing a container with the given tags on node,
// under the current state. It accounts for both directions of impact:
//
//  1. the candidate container as a *subject* of constraints, and
//  2. the candidate container as a *target* that changes γ for containers
//     already placed (including tentatively placed ones of this round).
//
// Greedy algorithms minimise this quantity when choosing nodes.
func placementDelta(state *cluster.Cluster, cons []constraint.Entry, tags []constraint.Tag, node cluster.NodeID) float64 {
	return placementDeltaMode(state, cons, tags, node, false)
}

// placementDeltaMode is placementDelta with an optional subject-only mode:
// when subjectOnly is set, only the candidate container's own constraints
// are scored and its impact as a *target* of already-placed subjects is
// ignored. This mirrors Kubernetes' semantics, where a deployed pod's
// affinity never constrains future pods (J-Kube, §7.1); Medea's
// algorithms score both directions.
func placementDeltaMode(state *cluster.Cluster, cons []constraint.Entry, tags []constraint.Tag, node cluster.NodeID, subjectOnly bool) float64 {
	total := 0.0
	for _, e := range cons {
		w := e.Constraint.EffectiveWeight()
		bestTerm, found := 0.0, false
		for _, term := range e.Constraint.Terms {
			applies := false
			sum := 0.0
			for _, a := range term {
				sum += atomDelta(state, a, tags, node, subjectOnly)
				if a.Subject.Matches(tags) || (!subjectOnly && a.Target.Matches(tags)) {
					applies = true
				}
			}
			if !applies {
				continue
			}
			if !found || sum < bestTerm {
				bestTerm, found = sum, true
			}
		}
		if found {
			total += w * bestTerm
		}
	}
	return total
}

// atomDelta computes the exact extent change of one atom caused by the
// tentative placement.
func atomDelta(state *cluster.Cluster, a constraint.Atom, tags []constraint.Tag, node cluster.NodeID, subjectOnly bool) float64 {
	delta := 0.0
	isSubject := a.Subject.Matches(tags)
	isTarget := a.Target.Matches(tags) && !subjectOnly
	if isSubject {
		// The new container's own cardinality test at this node. Self is
		// excluded, and the container is not yet in γ, so γ is used as-is.
		delta += subjectExtent(state, a, node, false)
	}
	if !isTarget {
		return delta
	}
	// Impact on already-placed subjects sharing a set with the node.
	for _, sid := range state.SetsOfNode(a.Group, node) {
		gTotal := state.Gamma(a.Group, sid, a.Target)
		nSubj := state.Gamma(a.Group, sid, a.Subject)
		nBoth := state.GammaBoth(a.Group, sid, a.Subject, a.Target)
		// Subjects that match the target see γ go from gTotal-1 to gTotal;
		// others from gTotal to gTotal+1.
		if nBoth > 0 {
			before, after := gTotal-1, gTotal
			if before < 0 {
				before = 0
			}
			delta += float64(nBoth) * (a.ViolationExtent(after) - a.ViolationExtent(before))
		}
		if n := nSubj - nBoth; n > 0 {
			delta += float64(n) * (a.ViolationExtent(gTotal+1) - a.ViolationExtent(gTotal))
		}
	}
	return delta
}

// flattenConstraints combines the active entries (deployed LRAs +
// operator) with the constraints of the newly submitted applications into
// one resolved, deduplicated list.
func flattenConstraints(apps []*Application, active []constraint.Entry) []constraint.Entry {
	entries := make([]constraint.Entry, 0, len(active)+len(apps))
	entries = append(entries, active...)
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
// textually identical constraints dropped.
func ResolveEntries(entries []constraint.Entry) []constraint.Entry {
	return dedupEntries(constraint.ResolveConflicts(entries))
}

// dedupEntries drops textually identical constraints. Application
// templates (e.g. "no more than 2 hb_rs per node") repeat verbatim across
// every instance of an application type; evaluating one copy is
// semantically equivalent and keeps scheduling cost independent of the
// number of deployed instances.
func dedupEntries(entries []constraint.Entry) []constraint.Entry {
	seen := make(map[string]bool, len(entries))
	out := entries[:0:0]
	for _, e := range entries {
		k := e.Constraint.String()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, e)
	}
	return out
}

// relevantEntries filters entries to those that can interact with a
// container carrying the given tags: some atom's subject or target
// matches it. Greedy node scoring calls this once per container instead
// of re-testing every constraint on every node.
func relevantEntries(entries []constraint.Entry, tags []constraint.Tag) []constraint.Entry {
	var out []constraint.Entry
	for _, e := range entries {
		if matchesAny(e.Constraint, tags) {
			out = append(out, e)
		}
	}
	return out
}

// matchesAtom reports whether a container with the given tags can interact
// with the atom, as its subject or as a target it counts.
func matchesAtom(a constraint.Atom, tags []constraint.Tag) bool {
	return a.Subject.Matches(tags) || a.Target.Matches(tags)
}

// matchesAny reports whether some atom of c can interact with a container
// carrying the given tags.
func matchesAny(c constraint.Constraint, tags []constraint.Tag) bool {
	for _, term := range c.Terms {
		for _, a := range term {
			if matchesAtom(a, tags) {
				return true
			}
		}
	}
	return false
}

// tagKey returns a canonical string key for a tag vector.
func tagKey(tags []constraint.Tag) string {
	ss := make([]string, len(tags))
	for i, t := range tags {
		ss[i] = string(t)
	}
	sort.Strings(ss)
	return strings.Join(ss, "\x00")
}

// ScoreNode exposes the greedy violation-delta scoring for external
// callers: it returns the increase in weighted violation extent caused by
// placing a container with the given tags on the node. The task-based
// scheduler uses it to support constraints for task containers in a
// heuristic fashion (§5.4) without involving the LRA scheduler.
func ScoreNode(state *cluster.Cluster, entries []constraint.Entry, tags []constraint.Tag, node cluster.NodeID) float64 {
	return placementDelta(state, ResolveEntries(entries), tags, node)
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
	addends, _ := appendExtents(buf[:0], state, resolved, node, tags)
	total := 0.0
	for _, x := range addends {
		total += x
	}
	return total
}
