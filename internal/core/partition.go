package core

import (
	"medea/internal/constraint"
	"medea/internal/lra"
)

// Batch partitioning for parallel sub-batch placement: two LRAs of one
// scheduling cycle interact through constraints only when their tag
// footprints meet — directly (a shared tag, which any constraint
// expression could couple) or through an active constraint of a deployed
// LRA or the operator whose expressions touch both. A union-find over
// those footprints splits the batch into independent components that can
// be solved concurrently; node capacity is the one channel the split
// ignores, and conflicts there are absorbed by the commit-time
// validation + requeue machinery (§5.4) exactly like races with task
// allocations.

type unionFind struct {
	parent []int
}

func newUnionFind(n int) *unionFind {
	u := &unionFind{parent: make([]int, n)}
	for i := range u.parent {
		u.parent[i] = i
	}
	return u
}

func (u *unionFind) find(i int) int {
	for u.parent[i] != i {
		u.parent[i] = u.parent[u.parent[i]] // path halving
		i = u.parent[i]
	}
	return i
}

// union merges the components of a and b, keeping the smaller root so
// component representatives stay stable in submission order.
func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	if ra > rb {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
}

// constraintTags collects every tag a constraint's expressions mention.
func constraintTags(c constraint.Constraint, into []constraint.Tag) []constraint.Tag {
	for _, term := range c.Terms {
		for _, a := range term {
			into = append(into, a.Subject...)
			into = append(into, a.Target...)
		}
	}
	return into
}

// appFootprint is the tag set through which an application can interact
// with other placements: the effective tags of its containers (which any
// constraint expression may match) plus every tag its own constraints
// reference.
func appFootprint(app *lra.Application) []constraint.Tag {
	var tags []constraint.Tag
	for _, g := range app.Groups {
		tags = append(tags, app.EffectiveTags(g)...)
	}
	for _, c := range app.Constraints {
		tags = constraintTags(c, tags)
	}
	return tags
}

// entryFootprint is the tag set of an active (deployed-LRA or operator)
// constraint entry.
func entryFootprint(e constraint.Entry) []constraint.Tag {
	tags := constraintTags(e.Constraint, nil)
	if e.AppID != "" {
		tags = append(tags, constraint.AppIDTag(e.AppID))
	}
	return tags
}

// partitionBatch splits a batch into constraint-independent components,
// each a sorted list of batch indices, returned in submission order of
// their first member. The partition depends only on the batch and the
// active constraint set, never on timing, so the concurrent sub-batch
// solve stays deterministic.
func partitionBatch(apps []*lra.Application, active []constraint.Entry) [][]int {
	uf := newUnionFind(len(apps))
	owner := make(map[constraint.Tag]int)
	for i, app := range apps {
		for _, t := range appFootprint(app) {
			if j, ok := owner[t]; ok {
				uf.union(i, j)
			} else {
				owner[t] = i
			}
		}
	}
	// An active entry couples every batch app its expressions can touch:
	// its violation extent depends jointly on their placements.
	for _, e := range active {
		first := -1
		for _, t := range entryFootprint(e) {
			j, ok := owner[t]
			if !ok {
				continue
			}
			if first < 0 {
				first = j
			} else {
				uf.union(first, j)
			}
		}
	}
	members := make(map[int][]int)
	var roots []int
	for i := range apps {
		r := uf.find(i)
		if len(members[r]) == 0 {
			roots = append(roots, r)
		}
		members[r] = append(members[r], i)
	}
	out := make([][]int, 0, len(roots))
	for _, r := range roots {
		out = append(out, members[r])
	}
	return out
}
