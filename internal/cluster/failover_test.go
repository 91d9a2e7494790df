package cluster

import (
	"testing"

	"medea/internal/constraint"
	"medea/internal/resource"
)

// failoverCluster builds an 8-node grid with two containers on node 0
// and one on node 1.
func failoverCluster(t *testing.T) *Cluster {
	t.Helper()
	c := Grid(8, 4, resource.New(16384, 8))
	if err := c.Allocate(0, "a#0", resource.New(2048, 1), []constraint.Tag{"hb"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Allocate(0, "a#1", resource.New(2048, 1), []constraint.Tag{"hb"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Allocate(1, "b#0", resource.New(1024, 1), []constraint.Tag{"st"}); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNodeStateTransitions(t *testing.T) {
	tests := []struct {
		name string
		// apply runs the transition under test and returns the evicted set.
		apply func(c *Cluster) []Eviction
		// wantEvicted are the container IDs the transition must report.
		wantEvicted []ContainerID
		wantState   NodeState
		// wantResident are containers still allocated on node 0 afterwards.
		wantResident int
	}{
		{
			name:         "fail evicts residents",
			apply:        func(c *Cluster) []Eviction { return c.FailNode(0) },
			wantEvicted:  []ContainerID{"a#0", "a#1"},
			wantState:    NodeDown,
			wantResident: 0,
		},
		{
			name: "double fail is idempotent",
			apply: func(c *Cluster) []Eviction {
				c.FailNode(0)
				return c.FailNode(0)
			},
			wantEvicted:  nil,
			wantState:    NodeDown,
			wantResident: 0,
		},
		{
			name:         "drain keeps residents running",
			apply:        func(c *Cluster) []Eviction { return c.DrainNode(0) },
			wantEvicted:  []ContainerID{"a#0", "a#1"},
			wantState:    NodeDraining,
			wantResident: 2,
		},
		{
			name: "double drain is idempotent",
			apply: func(c *Cluster) []Eviction {
				c.DrainNode(0)
				return c.DrainNode(0)
			},
			wantEvicted:  nil,
			wantState:    NodeDraining,
			wantResident: 2,
		},
		{
			name: "fail after drain evicts what is left",
			apply: func(c *Cluster) []Eviction {
				c.DrainNode(0)
				return c.FailNode(0)
			},
			wantEvicted:  []ContainerID{"a#0", "a#1"},
			wantState:    NodeDown,
			wantResident: 0,
		},
		{
			name: "recover after fail",
			apply: func(c *Cluster) []Eviction {
				evs := c.FailNode(0)
				if !c.RecoverNode(0) {
					t.Error("recover of a down node reported no change")
				}
				return evs
			},
			wantEvicted:  []ContainerID{"a#0", "a#1"},
			wantState:    NodeUp,
			wantResident: 0,
		},
		{
			name: "recover of an up node is a no-op",
			apply: func(c *Cluster) []Eviction {
				if c.RecoverNode(0) {
					t.Error("recover of an up node reported a change")
				}
				return nil
			},
			wantEvicted:  nil,
			wantState:    NodeUp,
			wantResident: 2,
		},
		{
			name: "unknown node IDs are no-ops",
			apply: func(c *Cluster) []Eviction {
				for _, id := range []NodeID{-1, NodeID(c.NumNodes()), 99} {
					if evs := c.FailNode(id); evs != nil {
						t.Errorf("FailNode(%d) = %v, want nil", id, evs)
					}
					if evs := c.DrainNode(id); evs != nil {
						t.Errorf("DrainNode(%d) = %v, want nil", id, evs)
					}
					if c.RecoverNode(id) {
						t.Errorf("RecoverNode(%d) reported a change", id)
					}
				}
				return nil
			},
			wantEvicted:  nil,
			wantState:    NodeUp,
			wantResident: 2,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := failoverCluster(t)
			evs := tt.apply(c)
			var got []ContainerID
			for _, e := range evs {
				got = append(got, e.Container)
			}
			if len(got) != len(tt.wantEvicted) {
				t.Fatalf("evicted = %v, want %v", got, tt.wantEvicted)
			}
			for i := range got {
				if got[i] != tt.wantEvicted[i] {
					t.Fatalf("evicted = %v, want %v", got, tt.wantEvicted)
				}
			}
			if s := c.Node(0).State(); s != tt.wantState {
				t.Errorf("state = %v, want %v", s, tt.wantState)
			}
			// Resident count on node 0.
			resident := 0
			c.EachContainer(func(_ ContainerID, n NodeID, _ []constraint.Tag) {
				if n == 0 {
					resident++
				}
			})
			if resident != tt.wantResident {
				t.Errorf("resident = %d, want %d", resident, tt.wantResident)
			}
			// The bystander on node 1 is untouched in every scenario.
			if n, ok := c.ContainerNode("b#0"); !ok || n != 1 {
				t.Errorf("bystander moved: node=%d ok=%v", n, ok)
			}
		})
	}
}

// TestFailNodeReleasesExactlyOnce: evicted containers are fully released —
// resources returned, tags removed, and a second release errors.
func TestFailNodeReleasesExactlyOnce(t *testing.T) {
	c := failoverCluster(t)
	evs := c.FailNode(0)
	if len(evs) != 2 {
		t.Fatalf("evictions = %d, want 2", len(evs))
	}
	if !c.Node(0).Used().IsZero() {
		t.Errorf("used after fail = %v, want zero", c.Node(0).Used())
	}
	if got := c.GammaNode(0, constraint.E("hb")); got != 0 {
		t.Errorf("γ(hb) after fail = %d, want 0", got)
	}
	if got := c.Gamma(constraint.Rack, 0, constraint.E("hb")); got != 0 {
		t.Errorf("rack γ(hb) after fail = %d, want 0", got)
	}
	for _, ev := range evs {
		if err := c.Release(ev.Container); err == nil {
			t.Errorf("second release of %s accepted", ev.Container)
		}
	}
	// Eviction records carry the demand and tags needed to re-request.
	if evs[0].Demand != resource.New(2048, 1) || len(evs[0].Tags) != 1 {
		t.Errorf("eviction record = %+v", evs[0])
	}
}

// TestGroupMembershipPreserved: node sets keep their members across
// transitions — only tag populations change.
func TestGroupMembershipPreserved(t *testing.T) {
	c := failoverCluster(t)
	before := len(c.SetMembers(constraint.Rack, 0))
	c.FailNode(0)
	if got := len(c.SetMembers(constraint.Rack, 0)); got != before {
		t.Errorf("rack membership changed: %d -> %d", before, got)
	}
	c.DrainNode(1)
	if got := len(c.SetMembers(constraint.Rack, 0)); got != before {
		t.Errorf("rack membership changed after drain: %d -> %d", before, got)
	}
}

// TestDrainGatesAllocations: a draining node refuses new allocations but
// its resident containers still count toward γ (they are still running).
func TestDrainGatesAllocations(t *testing.T) {
	c := failoverCluster(t)
	if evs := c.DrainNode(0); len(evs) != 2 {
		t.Fatalf("drain reported %d residents, want 2", len(evs))
	}
	if err := c.Allocate(0, "c#0", resource.New(1024, 1), nil); err == nil {
		t.Error("allocation on draining node accepted")
	}
	if got := c.GammaNode(0, constraint.E("hb")); got != 2 {
		t.Errorf("γ(hb) while draining = %d, want 2", got)
	}
	if !c.Node(0).Free().IsZero() {
		t.Errorf("Free on draining node = %v, want zero", c.Node(0).Free())
	}
	available := 0
	for _, n := range c.Nodes() {
		if n.Available() {
			available++
		}
	}
	if available != 7 {
		t.Errorf("available nodes = %d, want 7", available)
	}
}

// TestCloneCopiesNodeState: clones reproduce draining/down states along
// with residents of draining nodes.
func TestCloneCopiesNodeState(t *testing.T) {
	c := failoverCluster(t)
	c.DrainNode(0)
	c.FailNode(2)
	cc := c.Clone()
	if got := cc.Node(0).State(); got != NodeDraining {
		t.Errorf("cloned node 0 state = %v", got)
	}
	if got := cc.Node(2).State(); got != NodeDown {
		t.Errorf("cloned node 2 state = %v", got)
	}
	if n, ok := cc.ContainerNode("a#0"); !ok || n != 0 {
		t.Errorf("cloned resident of draining node: node=%d ok=%v", n, ok)
	}
}
