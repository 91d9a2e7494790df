package cluster

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"medea/internal/constraint"
	"medea/internal/resource"
)

// stateDigest renders everything a Clone must reproduce and must not
// share: the full-fidelity snapshot plus the γ multiset of every node set
// of every group and the per-tag counts (which the snapshot only
// implies).
func stateDigest(t *testing.T, c *Cluster) string {
	t.Helper()
	snap, err := json.Marshal(c.TakeSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	out := string(snap) + c.TotalCapacity().String() + fmt.Sprint(c.carried)
	for _, name := range c.Groups() {
		g := c.group(name)
		for sid, ts := range g.tagSets {
			out += fmt.Sprintf("\n%s/%d %s %v %s n=%d", name, sid, g.setNames[sid], g.sets[sid], ts, ts.CountExpr(nil))
		}
		for n := range c.nodes {
			out += fmt.Sprintf(" %v", c.SetsOfNode(name, NodeID(n)))
		}
	}
	return out
}

// aliasingCluster is a populated state with overlapping groups, a
// zero-demand attribute container and every node state.
func aliasingCluster(t *testing.T) *Cluster {
	t.Helper()
	c := Grid(16, 4, resource.New(8192, 8))
	if err := c.RegisterGroup(constraint.UpgradeDomain, [][]NodeID{{0, 1, 2, 3, 4, 5}, {4, 5, 6, 7, 8}, {12}}); err != nil {
		t.Fatal(err)
	}
	addAttribute(t, c, 3, "gpu")
	for i := 0; i < 40; i++ {
		tags := []constraint.Tag{"svc", constraint.Tag(fmt.Sprintf("app:%d", i%5))}
		if err := c.Allocate(NodeID(i%12), MakeContainerID("dep", i), resource.New(512, 1), tags); err != nil {
			t.Fatal(err)
		}
	}
	for _, node := range []NodeID{14, 15} {
		if err := c.Allocate(node, MakeContainerID("edge", int(node)), resource.New(512, 1), []constraint.Tag{"svc"}); err != nil {
			t.Fatal(err)
		}
	}
	c.DrainNode(14)
	c.FailNode(15)
	return c
}

// mutate applies every kind of mutation a cluster supports; k varies the
// nodes and names so concurrent callers do different things.
func mutate(t *testing.T, c *Cluster, k int) {
	t.Helper()
	node := NodeID(k % 12)
	if err := c.Allocate(node, MakeContainerID("new", k), resource.New(1024, 1), []constraint.Tag{"svc", "fresh"}); err != nil {
		t.Error(err)
	}
	if err := c.Release(MakeContainerID("dep", k)); err != nil {
		t.Error(err)
	}
	if err := c.RegisterGroup(constraint.Rack, [][]NodeID{{node, 13}}); err != nil { // extends a shared topology
		t.Error(err)
	}
	if err := c.RegisterGroup("zone", [][]NodeID{{0, node}, {13}}); err != nil {
		t.Error(err)
	}
	if err := c.Allocate(node, MakeContainerID("attr", k), resource.Vector{}, []constraint.Tag{"ssd"}); err != nil {
		t.Error(err)
	}
	c.FailNode(NodeID((k + 1) % 12))
	c.RecoverNode(15)
	extra := c.AddNode(fmt.Sprintf("extra-%d", k), resource.New(4096, 4))
	if err := c.Allocate(extra, MakeContainerID("onextra", k), resource.New(512, 1), []constraint.Tag{"svc"}); err != nil {
		t.Error(err)
	}
	if err := c.CheckAccounting(); err != nil {
		t.Error(err)
	}
}

// TestCloneAliasing: clones are taken concurrently from one source (as
// core's placeBatch does) and mutated while others are still being
// taken; the source must not change, and mutating the source afterwards
// must not change a clone. The clones allocate containers of tags the
// source carries on no container, and the source must still answer that
// it carries none of them. Run under -race it also proves the shared
// topology is never written.
func TestCloneAliasing(t *testing.T) {
	src := aliasingCluster(t)
	before := stateDigest(t, src)

	const n = 8
	clones := make([]*Cluster, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cl := src.Clone()
			if i == 0 {
				clones[i] = cl // kept pristine
				return
			}
			mutate(t, cl, i)
			clones[i] = cl.Clone() // a clone of a mutated clone, still independent
			mutate(t, cl, i+n)
		}(i)
	}
	wg.Wait()

	if got := stateDigest(t, src); got != before {
		t.Errorf("mutating clones changed the source:\n before %s\n after  %s", before, got)
	}
	for _, tag := range []constraint.Tag{"fresh", "ssd"} {
		if src.Carries(constraint.E(tag)) || !clones[1].Carries(constraint.E(tag)) {
			t.Errorf("after allocations of %q on clones: source carries it %v, a clone %v; want false, true",
				tag, src.Carries(constraint.E(tag)), clones[1].Carries(constraint.E(tag)))
		}
	}
	if err := src.CheckAccounting(); err != nil {
		t.Error(err)
	}
	if got := stateDigest(t, clones[0]); got != before {
		t.Errorf("clone differs from its source:\n source %s\n clone  %s", before, got)
	}

	digests := make([]string, n)
	for i, cl := range clones {
		digests[i] = stateDigest(t, cl)
	}
	mutate(t, src, 3)
	for i, cl := range clones {
		if got := stateDigest(t, cl); got != digests[i] {
			t.Errorf("mutating the source changed clone %d:\n before %s\n after  %s", i, digests[i], got)
		}
		if err := cl.CheckAccounting(); err != nil {
			t.Errorf("clone %d: %v", i, err)
		}
	}
}
