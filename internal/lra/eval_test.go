package lra

import (
	"math"
	"math/rand"
	"testing"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/resource"
)

func grid(n, rack int) *cluster.Cluster {
	return cluster.Grid(n, rack, resource.New(16384, 8))
}

func mustAlloc(t *testing.T, c *cluster.Cluster, node cluster.NodeID, id string, tags ...constraint.Tag) {
	t.Helper()
	if err := c.Allocate(node, cluster.ContainerID(id), resource.New(1024, 1), tags); err != nil {
		t.Fatal(err)
	}
}

// addAttribute gives a node a zero-demand container carrying tags: a
// machine attribute such as "gpu", as the tag model sees it.
func addAttribute(c *cluster.Cluster, node cluster.NodeID, tags ...constraint.Tag) {
	if err := c.Allocate(node, cluster.MakeContainerID("attr", c.NumContainers()), resource.Vector{}, tags); err != nil {
		panic(err) // unreachable: fixtures add attributes to up nodes
	}
}

func entries(cs ...constraint.Constraint) []constraint.Entry {
	out := make([]constraint.Entry, len(cs))
	for i, c := range cs {
		out[i] = constraint.Entry{Source: constraint.SourceOperator, Constraint: c}
	}
	return out
}

func TestEvaluateAffinity(t *testing.T) {
	c := grid(8, 4)
	// storm needs an hb container on the same node.
	con := constraint.New(constraint.Affinity(constraint.E("storm"), constraint.E("hb"), constraint.Node))
	mustAlloc(t, c, 0, "s#0", "storm")
	rep := Evaluate(c, entries(con))
	if rep.ViolatedContainers != 1 || rep.SubjectContainers != 1 {
		t.Errorf("lonely storm: violated=%d subject=%d, want 1,1", rep.ViolatedContainers, rep.SubjectContainers)
	}
	mustAlloc(t, c, 0, "h#0", "hb")
	rep = Evaluate(c, entries(con))
	if rep.ViolatedContainers != 0 {
		t.Errorf("collocated: violated=%d, want 0", rep.ViolatedContainers)
	}
	if got := rep.ViolationFraction(); got != 0 {
		t.Errorf("fraction = %v", got)
	}
}

func TestEvaluateAntiAffinity(t *testing.T) {
	c := grid(8, 4)
	con := constraint.New(constraint.AntiAffinity(constraint.E("storm"), constraint.E("hb"), constraint.Node))
	mustAlloc(t, c, 0, "s#0", "storm")
	mustAlloc(t, c, 1, "h#0", "hb")
	rep := Evaluate(c, entries(con))
	if rep.ViolatedContainers != 0 {
		t.Errorf("separated: violated=%d", rep.ViolatedContainers)
	}
	mustAlloc(t, c, 0, "h#1", "hb")
	rep = Evaluate(c, entries(con))
	if rep.ViolatedContainers != 1 {
		t.Errorf("collocated: violated=%d, want 1", rep.ViolatedContainers)
	}
}

// TestEvaluateSelfExclusion: a self-targeting anti-affinity like
// {spark, {spark, 0, 0}, node} must not flag a lone spark container, since
// Equations 6–7 exclude the subject container itself.
func TestEvaluateSelfExclusion(t *testing.T) {
	c := grid(4, 4)
	con := constraint.New(constraint.AntiAffinity(constraint.E("spark"), constraint.E("spark"), constraint.Node))
	mustAlloc(t, c, 0, "p#0", "spark")
	rep := Evaluate(c, entries(con))
	if rep.ViolatedContainers != 0 {
		t.Errorf("lone spark flagged: %+v", rep)
	}
	mustAlloc(t, c, 0, "p#1", "spark")
	rep = Evaluate(c, entries(con))
	if rep.ViolatedContainers != 2 {
		t.Errorf("two collocated sparks: violated=%d, want 2", rep.ViolatedContainers)
	}
}

func TestEvaluateCardinality(t *testing.T) {
	c := grid(8, 4)
	// At most 2 hb per rack.
	con := constraint.New(constraint.MaxCardinality(constraint.E("hb"), constraint.E("hb"), 2, constraint.Rack))
	for i := 0; i < 3; i++ {
		mustAlloc(t, c, cluster.NodeID(i), "h#"+string(rune('0'+i)), "hb")
	}
	// Each of the 3 sees 2 others -> γ=2 <= 2: satisfied.
	rep := Evaluate(c, entries(con))
	if rep.ViolatedContainers != 0 {
		t.Errorf("3 in rack with max-2-others: violated=%d", rep.ViolatedContainers)
	}
	mustAlloc(t, c, 3, "h#3", "hb")
	rep = Evaluate(c, entries(con))
	if rep.ViolatedContainers != 4 {
		t.Errorf("4 in rack: violated=%d, want 4", rep.ViolatedContainers)
	}
	if rep.TotalExtent <= 0 {
		t.Errorf("extent = %v", rep.TotalExtent)
	}
}

func TestEvaluateDNF(t *testing.T) {
	c := grid(8, 4)
	// storm needs hb on same node OR same rack.
	con := or(
		[]constraint.Atom{constraint.Affinity(constraint.E("storm"), constraint.E("hb"), constraint.Node)},
		[]constraint.Atom{constraint.Affinity(constraint.E("storm"), constraint.E("hb"), constraint.Rack)},
	)
	mustAlloc(t, c, 0, "s#0", "storm")
	mustAlloc(t, c, 1, "h#0", "hb") // same rack, different node
	rep := Evaluate(c, entries(con))
	if rep.ViolatedContainers != 0 {
		t.Errorf("rack term should satisfy DNF: %+v", rep)
	}
	// Move hb to the other rack: both terms violated.
	if err := c.Release("h#0"); err != nil {
		t.Fatal(err)
	}
	mustAlloc(t, c, 5, "h#0", "hb")
	rep = Evaluate(c, entries(con))
	if rep.ViolatedContainers != 1 {
		t.Errorf("cross-rack: violated=%d, want 1", rep.ViolatedContainers)
	}
}

func TestEvaluateUnregisteredGroup(t *testing.T) {
	c := grid(4, 4)
	aff := constraint.New(constraint.Affinity(constraint.E("a"), constraint.E("b"), constraint.UpgradeDomain))
	anti := constraint.New(constraint.AntiAffinity(constraint.E("a"), constraint.E("b"), constraint.UpgradeDomain))
	mustAlloc(t, c, 0, "a#0", "a")
	rep := Evaluate(c, entries(aff))
	if rep.ViolatedContainers != 1 {
		t.Errorf("affinity over unknown group should be violated: %+v", rep)
	}
	rep = Evaluate(c, entries(anti))
	if rep.ViolatedContainers != 0 {
		t.Errorf("anti-affinity over unknown group should pass: %+v", rep)
	}
}

// TestPlacementDeltaMatchesEvaluate cross-checks the incremental delta
// against full before/after evaluation on randomized states with simple
// constraints.
func TestPlacementDeltaMatchesEvaluate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tagPool := []constraint.Tag{"a", "b", "c"}
	groupPool := []constraint.GroupName{constraint.Node, constraint.Rack}
	for trial := 0; trial < 80; trial++ {
		c := grid(6, 3)
		// Random existing containers.
		for i := 0; i < rng.Intn(10); i++ {
			tags := []constraint.Tag{tagPool[rng.Intn(3)]}
			if rng.Intn(2) == 0 {
				tags = append(tags, tagPool[rng.Intn(3)])
			}
			node := cluster.NodeID(rng.Intn(6))
			_ = c.Allocate(node, cluster.MakeContainerID("e", i), resource.New(512, 0), tags)
		}
		// Random simple constraints.
		var cs []constraint.Constraint
		for i := 0; i < 1+rng.Intn(3); i++ {
			min := rng.Intn(2)
			max := min + rng.Intn(3)
			if rng.Intn(4) == 0 {
				max = constraint.Unbounded
				min = 1
			}
			cs = append(cs, constraint.New(constraint.CardinalityRange(
				constraint.E(tagPool[rng.Intn(3)]), constraint.E(tagPool[rng.Intn(3)]),
				min, max, groupPool[rng.Intn(2)])))
		}
		ent := entries(cs...)
		newTags := []constraint.Tag{tagPool[rng.Intn(3)], "x"}
		node := cluster.NodeID(rng.Intn(6))

		before := totalExtent(c, ent)
		delta := placementDelta(c, ent, newTags, node, false)
		if err := c.Allocate(node, "new#0", resource.New(512, 0), newTags); err != nil {
			t.Fatal(err)
		}
		after := totalExtent(c, ent)
		if math.Abs((after-before)-delta) > 1e-9 {
			t.Fatalf("trial %d: delta=%v, evaluate diff=%v (before=%v after=%v)",
				trial, delta, after-before, before, after)
		}
	}
}

// totalExtent sums weighted constraint extents over all containers,
// including satisfied ones (0), i.e. the quantity placementDelta tracks.
func totalExtent(c *cluster.Cluster, ent []constraint.Entry) float64 {
	total := 0.0
	for _, id := range containerIDs(c) {
		node, _ := c.ContainerNode(id)
		tags, _ := c.ContainerTags(id)
		for _, e := range ent {
			ext, applies := constraintExtent(c, e.Constraint, node, tags)
			if applies {
				total += ext * e.Constraint.EffectiveWeight()
			}
		}
	}
	return total
}

func TestFlattenConstraints(t *testing.T) {
	apps := []*Application{{
		ID:     "app1",
		Groups: []ContainerGroup{{Name: "w", Count: 1, Demand: resource.New(1024, 1)}},
		Constraints: []constraint.Constraint{
			constraint.New(constraint.Affinity(constraint.E("a"), constraint.E("b"), constraint.Node)),
		},
	}}
	active := entries(constraint.New(constraint.AntiAffinity(constraint.E("c"), constraint.E("d"), constraint.Rack)))
	got := flattenConstraints(apps, active)
	if len(got) != 2 {
		t.Fatalf("flattened = %d entries, want 2", len(got))
	}
	if got[1].AppID != "app1" {
		t.Errorf("app constraint lost provenance: %+v", got[1])
	}
}
