package cluster

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"medea/internal/constraint"
	"medea/internal/resource"
)

func testCluster(t *testing.T) *Cluster {
	t.Helper()
	return Grid(8, 4, resource.New(16384, 8))
}

// addAttribute gives a node a zero-demand container carrying tags: a
// machine attribute such as "gpu", as the tag model sees it.
func addAttribute(t *testing.T, c *Cluster, node NodeID, tags ...constraint.Tag) {
	t.Helper()
	if err := c.Allocate(node, MakeContainerID("attr", c.NumContainers()), resource.Vector{}, tags); err != nil {
		t.Fatal(err)
	}
}

func TestGridTopology(t *testing.T) {
	c := testCluster(t)
	if c.NumNodes() != 8 {
		t.Fatalf("NumNodes = %d", c.NumNodes())
	}
	if got := c.NumSets(constraint.Rack); got != 2 {
		t.Errorf("racks = %d, want 2", got)
	}
	if got := c.NumSets(constraint.Node); got != 8 {
		t.Errorf("node sets = %d, want 8", got)
	}
	// Node 5 is in rack 1.
	sets := c.SetsOfNode(constraint.Rack, 5)
	if len(sets) != 1 || sets[0] != 1 {
		t.Errorf("SetsOfNode(rack, 5) = %v, want [1]", sets)
	}
	if got := len(c.SetMembers(constraint.Rack, 0)); got != 4 {
		t.Errorf("rack 0 size = %d", got)
	}
}

func TestGridUnevenLastRack(t *testing.T) {
	c := Grid(10, 4, resource.New(1024, 1))
	if got := c.NumSets(constraint.Rack); got != 3 {
		t.Errorf("racks = %d, want 3", got)
	}
	if got := len(c.SetMembers(constraint.Rack, 2)); got != 2 {
		t.Errorf("last rack size = %d, want 2", got)
	}
}

func TestAllocateRelease(t *testing.T) {
	c := testCluster(t)
	d := resource.New(2048, 1)
	if err := c.Allocate(0, "a#0", d, []constraint.Tag{"hb", "hb_m"}); err != nil {
		t.Fatal(err)
	}
	if got := c.Node(0).Used(); got != d {
		t.Errorf("Used = %v", got)
	}
	if got := c.GammaNode(0, constraint.E("hb")); got != 1 {
		t.Errorf("γ(hb) on node = %d", got)
	}
	if got := c.Gamma(constraint.Rack, 0, constraint.E("hb")); got != 1 {
		t.Errorf("γ(hb) on rack = %d", got)
	}
	if got := c.Gamma(constraint.Rack, 1, constraint.E("hb")); got != 0 {
		t.Errorf("γ(hb) on other rack = %d", got)
	}
	nid, ok := c.ContainerNode("a#0")
	if !ok || nid != 0 {
		t.Errorf("ContainerNode = %d,%v", nid, ok)
	}
	if err := c.Release("a#0"); err != nil {
		t.Fatal(err)
	}
	if !c.Node(0).Used().IsZero() {
		t.Errorf("Used after release = %v", c.Node(0).Used())
	}
	if got := c.Gamma(constraint.Rack, 0, constraint.E("hb")); got != 0 {
		t.Errorf("γ(hb) after release = %d", got)
	}
}

func TestAllocateErrors(t *testing.T) {
	c := testCluster(t)
	d := resource.New(2048, 1)
	if err := c.Allocate(99, "x#0", d, nil); err == nil {
		t.Error("unknown node accepted")
	}
	if err := c.Allocate(0, "x#0", resource.New(1<<30, 1), nil); err == nil {
		t.Error("oversized demand accepted")
	}
	if err := c.Allocate(0, "x#0", d, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Allocate(1, "x#0", d, nil); err == nil {
		t.Error("duplicate container ID accepted")
	}
	c.FailNode(2)
	if err := c.Allocate(2, "y#0", d, nil); err == nil {
		t.Error("allocation on unavailable node accepted")
	}
	if err := c.Allocate(3, "z#0", resource.New(-4096, 1), nil); err == nil {
		t.Error("negative demand accepted")
	}
	if got := c.Node(3).Free(); got != resource.New(16384, 8) {
		t.Errorf("Free after a refused negative demand = %v", got)
	}
	if err := c.Release("ghost"); err == nil {
		t.Error("release of unknown container accepted")
	}
}

func TestCapacityExhaustion(t *testing.T) {
	c := Grid(1, 1, resource.New(4096, 4))
	d := resource.New(2048, 1)
	if err := c.Allocate(0, "a#0", d, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Allocate(0, "a#1", d, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Allocate(0, "a#2", d, nil); err == nil {
		t.Error("over-capacity allocation accepted")
	}
	if got := c.Node(0).Free(); got.MemoryMB != 0 || got.VCores != 2 {
		t.Errorf("Free = %v, want <0MB,2c>", got)
	}
}

func TestRegisterGroupOverlapping(t *testing.T) {
	c := testCluster(t)
	// Upgrade domains that overlap: node 0 in two domains.
	err := c.RegisterGroup(constraint.UpgradeDomain, [][]NodeID{{0, 1}, {0, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	sets := c.SetsOfNode(constraint.UpgradeDomain, 0)
	if len(sets) != 2 {
		t.Errorf("overlapping membership = %v", sets)
	}
	if err := c.Allocate(0, "a#0", resource.New(1024, 1), []constraint.Tag{"t"}); err != nil {
		t.Fatal(err)
	}
	// The tag must appear in both containing domains.
	for _, sid := range sets {
		if got := c.Gamma(constraint.UpgradeDomain, sid, constraint.E("t")); got != 1 {
			t.Errorf("γ(t) in domain %d = %d, want 1", sid, got)
		}
	}
}

func TestRegisterGroupErrors(t *testing.T) {
	c := testCluster(t)
	if err := c.RegisterGroup(constraint.Node, nil); err == nil {
		t.Error("re-registering predefined node group accepted")
	}
	if err := c.RegisterGroup("foo", [][]NodeID{{99}}); err == nil {
		t.Error("unknown node in group accepted")
	}
}

func TestUtilization(t *testing.T) {
	c := Grid(2, 2, resource.New(1024, 1))
	if got := c.MemoryUtilization(); got != 0 {
		t.Errorf("empty mem utilization = %v", got)
	}
	if err := c.Allocate(0, "a#0", resource.New(1024, 1), nil); err != nil {
		t.Fatal(err)
	}
	if got := c.MemoryUtilization(); got != 0.5 {
		t.Errorf("mem utilization = %v, want 0.5", got)
	}
}

func TestFragmentation(t *testing.T) {
	c := Grid(2, 2, resource.New(4096, 4))
	// Node 0: leave 1024MB/1c free -> fragmented (below 2GB).
	if err := c.Allocate(0, "a#0", resource.New(3072, 3), nil); err != nil {
		t.Fatal(err)
	}
	if got := c.FragmentedNodeFraction(); got != 0.5 {
		t.Errorf("fragmented fraction = %v, want 0.5", got)
	}
	// Fully utilised node does not count as fragmented.
	if err := c.Allocate(1, "b#0", resource.New(4096, 4), nil); err != nil {
		t.Fatal(err)
	}
	if got := c.FragmentedNodeFraction(); got != 0.5 {
		t.Errorf("fragmented fraction with full node = %v, want 0.5", got)
	}
}

func TestMemoryUtilizationCV(t *testing.T) {
	c := Grid(2, 2, resource.New(4096, 4))
	if got := c.MemoryUtilizationCV(); got != 0 {
		t.Errorf("CV of empty cluster = %v", got)
	}
	// Perfectly balanced: CV 0.
	_ = c.Allocate(0, "a#0", resource.New(2048, 1), nil)
	_ = c.Allocate(1, "a#1", resource.New(2048, 1), nil)
	if got := c.MemoryUtilizationCV(); got != 0 {
		t.Errorf("balanced CV = %v, want 0", got)
	}
	// Imbalance raises CV.
	_ = c.Allocate(0, "a#2", resource.New(2048, 1), nil)
	if got := c.MemoryUtilizationCV(); got <= 0 {
		t.Errorf("imbalanced CV = %v, want > 0", got)
	}
	// Exact value: utilisations 0.25 and 0.75 have mean 0.5 and
	// population stddev 0.25.
	two := Grid(2, 2, resource.New(4096, 4))
	if err := two.Allocate(0, "b#0", resource.New(1024, 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := two.Allocate(1, "b#1", resource.New(3072, 1), nil); err != nil {
		t.Fatal(err)
	}
	if got := two.MemoryUtilizationCV(); got != 0.5 {
		t.Errorf("CV of utilisations 0.25/0.75 = %v, want 0.5", got)
	}
}

func TestClone(t *testing.T) {
	c := testCluster(t)
	_ = c.RegisterGroup(constraint.UpgradeDomain, [][]NodeID{{0, 1, 2, 3}, {4, 5, 6, 7}})
	addAttribute(t, c, 1, "gpu")
	if err := c.Allocate(0, "a#0", resource.New(2048, 1), []constraint.Tag{"hb"}); err != nil {
		t.Fatal(err)
	}
	c.DrainNode(7)
	cc := c.Clone()
	// Copy is faithful.
	if cc.NumNodes() != c.NumNodes() || cc.NumContainers() != c.NumContainers() {
		t.Fatal("clone size mismatch")
	}
	if got := cc.Gamma(constraint.Rack, 0, constraint.E("hb")); got != 1 {
		t.Errorf("clone rack γ(hb) = %d", got)
	}
	if got := cc.GammaNode(1, constraint.E("gpu")); got != 1 {
		t.Errorf("clone γ(gpu) = %d", got)
	}
	if cc.Node(7).Available() {
		t.Error("clone lost availability flag")
	}
	// Copy is independent.
	if err := cc.Allocate(1, "b#0", resource.New(1024, 1), []constraint.Tag{"x"}); err != nil {
		t.Fatal(err)
	}
	if got := c.GammaNode(1, constraint.E("x")); got != 0 {
		t.Errorf("clone mutation leaked to original: γ(x) = %d", got)
	}
}

// TestDiff: a clone, and a cluster that allocated and released again,
// differ from their source in nothing; every other change to allocation
// state is named. A node keeps a count of its containers, not a list, so
// the count is compared and the container map alone says which they are.
func TestDiff(t *testing.T) {
	tags := []constraint.Tag{"hb"}
	src := testCluster(t)
	for i := 0; i < 3; i++ {
		if err := src.Allocate(0, MakeContainerID("a", i), resource.New(512, 1), tags); err != nil {
			t.Fatal(err)
		}
	}
	owner := src.NewOwners(2)
	if err := src.AllocateOwned(1, "t#0", resource.New(512, 1), nil, owner); err != nil {
		t.Fatal(err)
	}
	if d := src.Clone().Diff(src); d != "" {
		t.Fatalf("clone differs: %s", d)
	}
	for _, tc := range []struct {
		name   string
		mutate func(c *Cluster)
		want   bool // a difference
	}{
		{"allocate and release", func(c *Cluster) {
			_ = c.Allocate(5, "b#0", resource.New(512, 1), []constraint.Tag{"x"})
			_ = c.Release("b#0")
		}, false},
		{"allocate", func(c *Cluster) { _ = c.Allocate(5, "b#0", resource.New(512, 1), tags) }, true},
		{"release and allocate again", func(c *Cluster) {
			_ = c.Release(MakeContainerID("a", 0))
			_ = c.Allocate(0, MakeContainerID("a", 0), resource.New(512, 1), tags)
		}, false},
		{"resident count", func(c *Cluster) { c.nodes[0].count++ }, true},
		{"owner of one container", func(c *Cluster) {
			_, _ = c.ReleaseOwned("t#0", owner)
			_ = c.AllocateOwned(1, "t#0", resource.New(512, 1), nil, owner+1)
		}, true},
		{"tag of one container", func(c *Cluster) {
			_ = c.Release(MakeContainerID("a", 2))
			_ = c.Allocate(0, MakeContainerID("a", 2), resource.New(512, 1), []constraint.Tag{"hb", "x"})
		}, true},
		{"zero-demand container", func(c *Cluster) { addAttribute(t, c, 3, "gpu") }, true},
		{"node state", func(c *Cluster) { c.DrainNode(4) }, true},
	} {
		c := src.Clone()
		tc.mutate(c)
		if d := c.Diff(src); (d != "") != tc.want {
			t.Errorf("%s: Diff = %q", tc.name, d)
		}
	}
}

// TestCheckAccountingCountsResidents: after allocations and releases on
// every path — Release, ReleaseOwned, FailNode — each node counts the
// containers the map puts on it and CheckAccounting holds; a count that
// drifts from the map is named.
func TestCheckAccountingCountsResidents(t *testing.T) {
	c := testCluster(t)
	owner := c.NewOwners(1)
	for i := 0; i < 6; i++ {
		node := NodeID(i % 3)
		if err := c.Allocate(node, MakeContainerID("a", i), resource.New(512, 1), []constraint.Tag{"a"}); err != nil {
			t.Fatal(err)
		}
		if err := c.AllocateOwned(node, MakeContainerID("t", i), resource.New(256, 1), nil, owner); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Release(MakeContainerID("a", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReleaseOwned(MakeContainerID("t", 1), owner); err != nil {
		t.Fatal(err)
	}
	c.FailNode(2)
	for n, want := range []int{3, 3, 0, 0} {
		if got := c.Node(NodeID(n)).NumContainers(); got != want {
			t.Errorf("node %d counts %d containers, want %d", n, got, want)
		}
	}
	if err := c.CheckAccounting(); err != nil {
		t.Fatal(err)
	}
	c.nodes[1].count--
	if err := c.CheckAccounting(); err == nil || !strings.Contains(err.Error(), "node n1 counts 2 containers") {
		t.Errorf("CheckAccounting() = %v, want the drifted count of n1 named", err)
	}
}

// TestCarriesMatchesContainerMap drives a cluster through random
// allocations (tag vectors with repeated tags and untagged containers
// among them), releases, FailNode evictions, drains whose containers are
// then released, recoveries and clones. After every step Carries must
// answer, for every tag, every pair of tags and the empty expression,
// what a recount over the container map answers, and CheckAccounting
// must hold. A Carries that checks only an expression's first tag fails
// the pairs; per-tag counts that drift from the map fail
// CheckAccounting.
func TestCarriesMatchesContainerMap(t *testing.T) {
	pool := []constraint.Tag{"a", "b", "c", "appID:x"}
	vectors := [][]constraint.Tag{{"a"}, {"a", "a"}, {"b", "appID:x"}, {"c", "a", "b"}, nil}
	exprs := []constraint.Expr{nil}
	for _, x := range pool {
		exprs = append(exprs, constraint.E(x))
		for _, y := range pool {
			exprs = append(exprs, constraint.E(x, y))
		}
	}
	rng := rand.New(rand.NewSource(1))
	c := testCluster(t)
	firstOnly := 0 // expressions whose first tag alone is carried
	for step := 0; step < 400; step++ {
		var ids []ContainerID
		c.EachContainer(func(id ContainerID, _ NodeID, _ []constraint.Tag) { ids = append(ids, id) })
		slices.Sort(ids)
		node := NodeID(rng.Intn(c.NumNodes()))
		switch op := rng.Intn(10); {
		case op < 5:
			_ = c.Allocate(node, MakeContainerID("s", step), resource.New(512, 1), vectors[rng.Intn(len(vectors))])
		case op < 8 && len(ids) > 0:
			if err := c.Release(ids[rng.Intn(len(ids))]); err != nil {
				t.Fatal(err)
			}
		case op == 8:
			if rng.Intn(2) == 0 {
				c.FailNode(node)
			} else {
				for _, ev := range c.DrainNode(node) {
					if err := c.Release(ev.Container); err != nil {
						t.Fatal(err)
					}
				}
			}
		default:
			c.RecoverNode(node)
			if rng.Intn(4) == 0 {
				c = c.Clone()
			}
		}
		if err := c.CheckAccounting(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		carried := map[constraint.Tag]bool{}
		c.EachContainer(func(_ ContainerID, _ NodeID, tags []constraint.Tag) {
			for _, x := range tags {
				carried[x] = true
			}
		})
		for _, e := range exprs {
			want := len(e) > 0 || len(carried) > 0
			for _, x := range e {
				want = want && carried[x]
			}
			if got := c.Carries(e); got != want {
				t.Fatalf("step %d: Carries(%v) = %v, the container map says %v", step, e, got, want)
			}
			if len(e) == 2 && carried[e[0]] && !want {
				firstOnly++
			}
		}
	}
	if firstOnly == 0 {
		t.Error("coverage: no expression had only its first tag carried")
	}
	c.carried["a"]++
	if err := c.CheckAccounting(); err == nil || !strings.Contains(err.Error(), "per-tag counts") {
		t.Errorf("CheckAccounting() = %v, want the drifted per-tag count named", err)
	}
}

func TestCloneUnavailableNodeWithContainers(t *testing.T) {
	c := testCluster(t)
	if err := c.Allocate(0, "a#0", resource.New(2048, 1), []constraint.Tag{"t"}); err != nil {
		t.Fatal(err)
	}
	c.DrainNode(0)
	cc := c.Clone()
	if cc.Node(0).Available() {
		t.Error("availability not copied")
	}
	if got := cc.GammaNode(0, constraint.E("t")); got != 1 {
		t.Errorf("container on down node lost in clone: γ = %d", got)
	}
}

// Property: for random allocate/release sequences, node used resources
// equal the sum of live container demands and γ stays consistent.
func TestAllocReleaseInvariant(t *testing.T) {
	f := func(ops []uint8) bool {
		c := Grid(4, 2, resource.New(8192, 8))
		live := make(map[ContainerID]resource.Vector)
		seq := 0
		for _, op := range ops {
			node := NodeID(op % 4)
			if op%3 == 0 && len(live) > 0 {
				for id := range live {
					if c.Release(id) != nil {
						return false
					}
					delete(live, id)
					break
				}
				continue
			}
			seq++
			id := MakeContainerID("p", seq)
			d := resource.New(int64(1+op%4)*512, 1)
			if err := c.Allocate(node, id, d, []constraint.Tag{"p"}); err == nil {
				live[id] = d
			}
		}
		var want resource.Vector
		for _, d := range live {
			want = want.Add(d)
		}
		if c.TotalUsed() != want {
			return false
		}
		total := 0
		for n := 0; n < 4; n++ {
			total += c.GammaNode(NodeID(n), constraint.E("p"))
		}
		return total == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
