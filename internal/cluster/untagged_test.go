package cluster

import (
	"fmt"
	"math/rand"
	"testing"

	"medea/internal/constraint"
	"medea/internal/resource"
)

// tagSetsDiff describes the first node or group tag multiset in which a
// and b differ, or returns "" when every one is Equal.
func tagSetsDiff(a, b *Cluster) string {
	for i, n := range a.nodes {
		if !n.tags.Equal(b.nodes[i].tags) {
			return fmt.Sprintf("node %s: %s, %s", n.Name, n.tags, b.nodes[i].tags)
		}
	}
	for gi, g := range a.groups {
		for sid, ts := range g.tagSets {
			if !ts.Equal(b.groups[gi].tagSets[sid]) {
				return fmt.Sprintf("%s set %d: %s, %s", g.name, sid, ts, b.groups[gi].tagSets[sid])
			}
		}
	}
	return ""
}

// untaggedCluster is a 16-node grid in racks of 4 with an overlapping
// "pair" group on top, holding a few tagged containers.
func untaggedCluster(t *testing.T) *Cluster {
	t.Helper()
	c := Grid(16, 4, resource.New(65536, 64))
	var pairs [][]NodeID
	for i := 0; i < 15; i++ {
		pairs = append(pairs, []NodeID{NodeID(i), NodeID(i + 1)})
	}
	if err := c.RegisterGroup("pair", pairs); err != nil {
		t.Fatal(err)
	}
	for i, tags := range [][]constraint.Tag{{"hb"}, {"hb", "hb_m"}, {"storm"}, {"hb"}} {
		if err := c.Allocate(NodeID(i*3), ContainerID(fmt.Sprintf("0000-fixture#%d", i)), resource.New(1024, 1), tags); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestUntaggedContainerLeavesTagSets: allocating an untagged container
// (nil or empty tags) leaves every node and group tag multiset Equal to
// what it was, and releasing it leaves nothing behind at all.
func TestUntaggedContainerLeavesTagSets(t *testing.T) {
	c := untaggedCluster(t)
	before := c.Clone()
	for i, tags := range [][]constraint.Tag{nil, {}} {
		for n := 0; n < c.NumNodes(); n++ {
			if err := c.Allocate(NodeID(n), ContainerID(fmt.Sprintf("task#t%d-%d", i, n)), resource.New(1024, 1), tags); err != nil {
				t.Fatal(err)
			}
		}
	}
	if d := tagSetsDiff(before, c); d != "" {
		t.Fatalf("untagged allocations moved a tag multiset: %s", d)
	}
	for i := 0; i < 2; i++ {
		for n := 0; n < c.NumNodes(); n++ {
			if err := c.Release(ContainerID(fmt.Sprintf("task#t%d-%d", i, n))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if d := before.Diff(c); d != "" {
		t.Fatalf("allocate+release of untagged containers left a difference: %s", d)
	}
}

// untaggedFixture is a constraint list over the tags untaggedCluster
// and TestTasksDoNotMoveGamma use, in the node, rack and pair groups.
var untaggedFixture = []constraint.Constraint{
	constraint.New(constraint.AntiAffinity(constraint.E("hb"), constraint.E("hb"), constraint.Node)),
	constraint.New(constraint.Affinity(constraint.E("storm"), constraint.E("hb", "hb_m"), constraint.Rack)),
	constraint.New(constraint.CardinalityRange(constraint.E("mc"), constraint.E("storm", "mc"), 0, 2, "pair")),
	{Terms: [][]constraint.Atom{
		{constraint.AntiAffinity(constraint.E("hb_m"), constraint.E("storm"), constraint.Rack)},
		{constraint.Affinity(constraint.E("hb_m"), constraint.E("mc"), constraint.Node)},
	}, Weight: 1},
}

// TestTasksDoNotMoveGamma drives two clusters through the same seeded
// sequence of tagged allocations, releases and node failures; the second
// one also allocates and releases untagged task containers in between.
// After every step, Gamma, GammaAtom and GammaNode read the same on both
// for every expression of untaggedFixture in every set, and at the end
// the mixed cluster restored through FromSnapshot has no Diff against
// the live one. IDs sort in allocation order, so the restore, which
// allocates in ID order, rebuilds every node's residents in their order.
func TestTasksDoNotMoveGamma(t *testing.T) {
	vectors := [][]constraint.Tag{{"hb"}, {"hb", "hb_m"}, {"storm"}, {"mc"}, {"storm", "mc"}, {"hb_m"}}
	var exprs []constraint.Expr
	for _, c := range untaggedFixture {
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		for _, term := range c.Terms {
			for _, a := range term {
				exprs = append(exprs, a.Subject, a.Target)
			}
		}
	}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lraOnly, mixed := untaggedCluster(t), untaggedCluster(t)
		var lras, tasks []ContainerID
		for step := 0; step < 300; step++ {
			node := NodeID(rng.Intn(lraOnly.NumNodes()))
			switch r := rng.Intn(10); {
			case r < 3:
				id := ContainerID(fmt.Sprintf("%04d-lra", step+1))
				tags := vectors[rng.Intn(len(vectors))]
				e1 := lraOnly.Allocate(node, id, resource.New(512, 1), tags)
				e2 := mixed.Allocate(node, id, resource.New(512, 1), tags)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("seed %d step %d: allocate %s: %v, %v", seed, step, id, e1, e2)
				}
				if e1 == nil {
					lras = append(lras, id)
				}
			case r < 4 && len(lras) > 0:
				k := rng.Intn(len(lras))
				if err := lraOnly.Release(lras[k]); err != nil {
					t.Fatal(err)
				}
				if err := mixed.Release(lras[k]); err != nil {
					t.Fatal(err)
				}
				lras = append(lras[:k], lras[k+1:]...)
			case r < 7:
				id := ContainerID(fmt.Sprintf("%04d-job#t", step+1))
				if mixed.Allocate(node, id, resource.New(1024, 1), nil) == nil {
					tasks = append(tasks, id)
				}
			case r < 9 && len(tasks) > 0:
				k := rng.Intn(len(tasks))
				if err := mixed.Release(tasks[k]); err != nil {
					t.Fatal(err)
				}
				tasks = append(tasks[:k], tasks[k+1:]...)
			case r == 9:
				lraOnly.FailNode(node)
				for _, ev := range mixed.FailNode(node) {
					lras = removeID(lras, ev.Container)
					tasks = removeID(tasks, ev.Container)
				}
				lraOnly.RecoverNode(node)
				mixed.RecoverNode(node)
			}
			if d := gammaDiff(lraOnly, mixed, exprs); d != "" {
				t.Fatalf("seed %d step %d: %s", seed, step, d)
			}
		}
		snap := mixed.TakeSnapshot()
		restored, err := FromSnapshot(&snap)
		if err != nil {
			t.Fatal(err)
		}
		if d := mixed.Diff(restored); d != "" {
			t.Fatalf("seed %d: restored cluster differs: %s", seed, d)
		}
	}
}

func removeID(ids []ContainerID, id ContainerID) []ContainerID {
	for i, x := range ids {
		if x == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

// gammaDiff describes the first Gamma, GammaAtom or GammaNode reading of
// one of exprs that differs between a and b, or returns "".
func gammaDiff(a, b *Cluster, exprs []constraint.Expr) string {
	for _, e := range exprs {
		for n := 0; n < a.NumNodes(); n++ {
			if x, y := a.GammaNode(NodeID(n), e), b.GammaNode(NodeID(n), e); x != y {
				return fmt.Sprintf("GammaNode(%d, %s) = %d, %d", n, e, x, y)
			}
		}
		for _, g := range a.Groups() {
			for sid := 0; sid < a.NumSets(g); sid++ {
				if x, y := a.Gamma(g, SetID(sid), e), b.Gamma(g, SetID(sid), e); x != y {
					return fmt.Sprintf("Gamma(%s, %d, %s) = %d, %d", g, sid, e, x, y)
				}
				for _, target := range exprs {
					x1, x2, x3 := a.GammaAtom(g, SetID(sid), e, target)
					y1, y2, y3 := b.GammaAtom(g, SetID(sid), e, target)
					if x1 != y1 || x2 != y2 || x3 != y3 {
						return fmt.Sprintf("GammaAtom(%s, %d, %s, %s) = %d/%d/%d, %d/%d/%d",
							g, sid, e, target, x1, x2, x3, y1, y2, y3)
					}
				}
			}
		}
	}
	return ""
}
