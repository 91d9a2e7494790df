package cluster

import (
	"encoding/json"
	"reflect"
	"testing"

	"medea/internal/constraint"
	"medea/internal/resource"
)

// fixture builds three nodes: n2 is smaller and starts down, and two
// racks and two upgrade domains cut across them.
func fixture(t *testing.T) *Cluster {
	t.Helper()
	c := New()
	n0 := c.AddNode("n0", resource.New(16384, 8))
	n1 := c.AddNode("n1", resource.New(16384, 8))
	n2 := c.AddNode("n2", resource.New(8192, 4))
	c.FailNode(n2)
	if err := c.RegisterGroup(constraint.Rack, [][]NodeID{{n0, n1}, {n2}}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterGroup(constraint.UpgradeDomain, [][]NodeID{{n0, n2}, {n1}}); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSpecRoundTripThroughScheduling(t *testing.T) {
	c := fixture(t)
	// Allocation works on the fixture, including group bookkeeping.
	if err := c.Allocate(0, "a#0", resource.New(1024, 1), []constraint.Tag{"t"}); err != nil {
		t.Fatal(err)
	}
	if got := c.Gamma(constraint.UpgradeDomain, 0, constraint.E("t")); got != 1 {
		t.Errorf("γ(t) in upgrade domain = %d", got)
	}
	// The unavailable fixture node rejects allocations.
	if err := c.Allocate(2, "a#1", resource.New(1024, 1), nil); err == nil {
		t.Error("allocation on unavailable node accepted")
	}
}

// The snapshot must round-trip everything the node state machine added
// in the failover work: drain/failed states and allocations — encode →
// decode → FromSnapshot → CheckAccounting, then behavioral spot checks.
func TestSnapshotRoundTrip(t *testing.T) {
	c := fixture(t)
	if err := c.Allocate(0, "a#0", resource.New(2048, 2), []constraint.Tag{"svc", "app:a"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Allocate(1, "a#1", resource.New(2048, 2), []constraint.Tag{"svc", "app:a"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Allocate(1, "b#0", resource.New(1024, 1), []constraint.Tag{"db"}); err != nil {
		t.Fatal(err)
	}
	// Exercise the runtime state machine: n1 drains (containers stay),
	// n2 recovers from its initial down state.
	if evs := c.DrainNode(1); len(evs) != 2 {
		t.Fatalf("drain evictions = %d, want 2", len(evs))
	}
	if !c.RecoverNode(2) {
		t.Fatal("n2 did not recover")
	}

	// Encode → decode through JSON, as a checkpoint would.
	b, err := json.Marshal(c.TakeSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	rc, err := FromSnapshot(&snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.CheckAccounting(); err != nil {
		t.Fatalf("restored cluster fails accounting: %v", err)
	}

	// Node state machine round-tripped.
	if st := rc.Node(1).State(); st != NodeDraining {
		t.Errorf("n1 state = %s, want draining", st)
	}
	if st := rc.Node(2).State(); st != NodeUp {
		t.Errorf("n2 state = %s, want up", st)
	}
	// Allocations and usage round-tripped.
	if rc.NumContainers() != 3 {
		t.Errorf("containers = %d, want 3", rc.NumContainers())
	}
	if got := rc.Node(1).Used(); got != resource.New(3072, 3) {
		t.Errorf("n1 used = %v", got)
	}
	if node, ok := rc.ContainerNode("a#0"); !ok || node != 0 {
		t.Errorf("a#0 on node %d (ok=%v), want 0", node, ok)
	}
	// Group topology round-tripped: tag counting per upgrade domain.
	if got := rc.Gamma(constraint.UpgradeDomain, 1, constraint.E("db")); got != 1 {
		t.Errorf("restored γ(db) in upgrade domain 1 = %d", got)
	}
	// Draining node still refuses new allocations after restore.
	if err := rc.Allocate(1, "c#0", resource.New(512, 1), nil); err == nil {
		t.Error("restored draining node accepted an allocation")
	}
	// A second encode of the restored cluster is identical to the first —
	// the snapshot is a fixed point.
	b2, err := json.Marshal(rc.TakeSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != string(b2) {
		t.Errorf("snapshot not a fixed point:\n first=%s\nsecond=%s", b, b2)
	}
}

// FromSnapshot is the one validator of a cluster description's node
// list and topology: every description below names an impossible
// cluster and must be refused.
func TestSpecValidation(t *testing.T) {
	node := func(name string, mb int64) NodeSnapshot {
		return NodeSnapshot{Name: name, CapacityMB: mb, CapacityCores: 1, State: "up"}
	}
	bad := []Snapshot{
		{}, // no nodes
		{Nodes: []NodeSnapshot{node("", 1)}},
		{Nodes: []NodeSnapshot{node("a", 1), node("a", 1)}},
		{Nodes: []NodeSnapshot{node("a", 0)}},
		{Nodes: []NodeSnapshot{node("a", 1)},
			Groups: map[string][][]string{"rack": {{"ghost"}}}},
		{Nodes: []NodeSnapshot{node("a", 1)},
			Groups: map[string][][]string{"node": {{"a"}}}}, // predefined
		{Nodes: []NodeSnapshot{node("a", 1024)}, // negative allocation demand
			Allocations: []ContainerSnapshot{{ID: "x#0", Node: "a", MemoryMB: -4096}}},
	}
	for i := range bad {
		if _, err := FromSnapshot(&bad[i]); err == nil {
			t.Errorf("bad description %d accepted", i)
		}
	}
}

func TestFromSnapshotRejectsMalformed(t *testing.T) {
	base := func() *Snapshot {
		s := &Snapshot{Nodes: []NodeSnapshot{{Name: "n0", CapacityMB: 1024, CapacityCores: 2, State: "up"}}}
		return s
	}
	cases := map[string]func(*Snapshot){
		"no nodes":      func(s *Snapshot) { s.Nodes = nil },
		"unnamed node":  func(s *Snapshot) { s.Nodes[0].Name = "" },
		"zero capacity": func(s *Snapshot) { s.Nodes[0].CapacityMB = 0 },
		"bad state":     func(s *Snapshot) { s.Nodes[0].State = "sideways" },
		"predefined group": func(s *Snapshot) {
			s.Groups = map[string][][]string{"node": {{"n0"}}}
		},
		"unknown group node": func(s *Snapshot) {
			s.Groups = map[string][][]string{"rack": {{"ghost"}}}
		},
		"unknown alloc node": func(s *Snapshot) {
			s.Allocations = []ContainerSnapshot{{ID: "a#0", Node: "ghost", MemoryMB: 1}}
		},
		"overcommitted": func(s *Snapshot) {
			s.Allocations = []ContainerSnapshot{{ID: "a#0", Node: "n0", MemoryMB: 4096, VCores: 1}}
		},
	}
	for name, mutate := range cases {
		s := base()
		mutate(s)
		if _, err := FromSnapshot(s); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTakeSnapshot(t *testing.T) {
	c := fixture(t)
	if err := c.Allocate(0, "a#0", resource.New(2048, 2), []constraint.Tag{"t"}); err != nil {
		t.Fatal(err)
	}
	snap := c.TakeSnapshot()
	if len(snap.Nodes) != 3 || len(snap.Allocations) != 1 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if got, want := snap.Allocations[0], (ContainerSnapshot{ID: "a#0", Node: "n0", MemoryMB: 2048, VCores: 2, Tags: []constraint.Tag{"t"}}); !reflect.DeepEqual(got, want) {
		t.Errorf("allocation = %+v, want %+v", got, want)
	}
	if got := snap.Nodes[2]; got != (NodeSnapshot{Name: "n2", CapacityMB: 8192, CapacityCores: 4, State: "down"}) {
		t.Errorf("n2 snapshot = %+v", got)
	}
	if got := snap.Groups[string(constraint.UpgradeDomain)]; !reflect.DeepEqual(got, [][]string{{"n0", "n2"}, {"n1"}}) {
		t.Errorf("upgrade domains = %v", got)
	}
	// Snapshot must serialise cleanly.
	if _, err := json.Marshal(snap); err != nil {
		t.Errorf("snapshot marshal: %v", err)
	}
}
