package cluster

import (
	"fmt"
	"sort"

	"medea/internal/constraint"
	"medea/internal/resource"
)

// Snapshot is a point-in-time, JSON-serialisable view of cluster state.
// It is full-fidelity and stores each fact once: FromSnapshot rebuilds
// an equivalent cluster — topology, every allocation and the runtime
// node state machine (up / draining / down) — and re-derives usage and
// free capacity from them, so a restart-recovery checkpoint loses
// nothing.
type Snapshot struct {
	Nodes []NodeSnapshot `json:"nodes"`
	// Groups is the registered topology (group name → node sets by node
	// name), minus the automatic "node" group.
	Groups map[string][][]string `json:"groups,omitempty"`
	// Allocations lists every container, sorted by ID.
	Allocations []ContainerSnapshot `json:"allocations,omitempty"`
}

// NodeSnapshot is one node's state in a Snapshot.
type NodeSnapshot struct {
	Name          string `json:"name"`
	CapacityMB    int64  `json:"capacityMB"`
	CapacityCores int64  `json:"capacityCores"`
	State         string `json:"state"`
}

// ContainerSnapshot is one allocation in a Snapshot.
type ContainerSnapshot struct {
	ID       string           `json:"id"`
	Node     string           `json:"node"`
	MemoryMB int64            `json:"memoryMB,omitempty"`
	VCores   int64            `json:"vcores,omitempty"`
	Tags     []constraint.Tag `json:"tags,omitempty"`
}

// TakeSnapshot captures the current state.
func (c *Cluster) TakeSnapshot() Snapshot {
	var snap Snapshot
	for _, n := range c.nodes {
		snap.Nodes = append(snap.Nodes, NodeSnapshot{
			Name:          n.Name,
			CapacityMB:    n.Capacity.MemoryMB,
			CapacityCores: n.Capacity.VCores,
			State:         n.state.String(),
		})
	}
	for _, g := range c.groups {
		if g.name == constraint.Node {
			continue
		}
		if snap.Groups == nil {
			snap.Groups = make(map[string][][]string)
		}
		sets := make([][]string, len(g.sets))
		for i, set := range g.sets {
			sets[i] = make([]string, len(set))
			for j, nid := range set {
				sets[i][j] = c.nodes[nid].Name
			}
		}
		snap.Groups[string(g.name)] = sets
	}
	for id, info := range c.containers {
		snap.Allocations = append(snap.Allocations, ContainerSnapshot{
			ID:       string(id),
			Node:     c.nodes[info.node].Name,
			MemoryMB: info.demand.MemoryMB,
			VCores:   info.demand.VCores,
			Tags:     append([]constraint.Tag(nil), info.tags...),
		})
	}
	sort.Slice(snap.Allocations, func(i, j int) bool { return snap.Allocations[i].ID < snap.Allocations[j].ID })
	return snap
}

// ParseNodeState parses the textual NodeState form used in snapshots.
func ParseNodeState(s string) (NodeState, error) {
	switch s {
	case "up", "":
		return NodeUp, nil
	case "draining":
		return NodeDraining, nil
	case "down":
		return NodeDown, nil
	default:
		return NodeUp, fmt.Errorf("cluster: unknown node state %q", s)
	}
}

// FromSnapshot rebuilds a cluster from a full-fidelity snapshot:
// topology first, then every allocation through Allocate while all nodes
// are still up, so bookkeeping is re-derived and re-validated, and the
// node state machine last, so containers resident on draining nodes
// re-allocate cleanly.
func FromSnapshot(s *Snapshot) (*Cluster, error) {
	if len(s.Nodes) == 0 {
		return nil, fmt.Errorf("cluster: snapshot has no nodes")
	}
	c := New()
	idOf := make(map[string]NodeID, len(s.Nodes))
	for _, n := range s.Nodes {
		if n.Name == "" {
			return nil, fmt.Errorf("cluster: snapshot node without name")
		}
		if _, dup := idOf[n.Name]; dup {
			return nil, fmt.Errorf("cluster: snapshot has duplicate node %q", n.Name)
		}
		if n.CapacityMB <= 0 || n.CapacityCores <= 0 {
			return nil, fmt.Errorf("cluster: snapshot node %q has non-positive capacity <%dMB,%dc>",
				n.Name, n.CapacityMB, n.CapacityCores)
		}
		idOf[n.Name] = c.AddNode(n.Name, resource.New(n.CapacityMB, n.CapacityCores))
	}
	groups := make([]string, 0, len(s.Groups))
	for name := range s.Groups {
		groups = append(groups, name)
	}
	sort.Strings(groups) // deterministic SetID assignment
	for _, name := range groups {
		if name == string(constraint.Node) {
			return nil, fmt.Errorf("cluster: snapshot group %q is predefined", name)
		}
		sets := s.Groups[name]
		nodeSets := make([][]NodeID, len(sets))
		for i, set := range sets {
			nodeSets[i] = make([]NodeID, len(set))
			for j, nodeName := range set {
				nid, ok := idOf[nodeName]
				if !ok {
					return nil, fmt.Errorf("cluster: snapshot group %q references unknown node %q", name, nodeName)
				}
				nodeSets[i][j] = nid
			}
		}
		if err := c.RegisterGroup(constraint.GroupName(name), nodeSets); err != nil {
			return nil, err
		}
	}
	for _, a := range s.Allocations {
		nid, ok := idOf[a.Node]
		if !ok {
			return nil, fmt.Errorf("cluster: snapshot allocation %s on unknown node %q", a.ID, a.Node)
		}
		if err := c.Allocate(nid, ContainerID(a.ID), resource.New(a.MemoryMB, a.VCores), a.Tags); err != nil {
			return nil, fmt.Errorf("cluster: restoring snapshot: %w", err)
		}
	}
	for i, n := range s.Nodes {
		st, err := ParseNodeState(n.State)
		if err != nil {
			return nil, err
		}
		c.nodes[NodeID(i)].state = st
	}
	return c, nil
}
