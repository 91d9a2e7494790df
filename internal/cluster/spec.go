package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"medea/internal/constraint"
	"medea/internal/resource"
)

// Spec is a declarative cluster topology, loadable from JSON. It is how a
// deployment describes real machines, racks, fault/upgrade domains and
// static attributes to Medea, rather than constructing the cluster
// programmatically.
//
// Example:
//
//	{
//	  "nodes": [
//	    {"name": "n0", "memoryMB": 131072, "vcores": 32, "tags": ["gpu"]},
//	    {"name": "n1", "memoryMB": 131072, "vcores": 32}
//	  ],
//	  "groups": {
//	    "rack":           [["n0", "n1"]],
//	    "upgrade_domain": [["n0"], ["n1"]]
//	  }
//	}
type Spec struct {
	Nodes  []NodeSpec            `json:"nodes"`
	Groups map[string][][]string `json:"groups,omitempty"`
}

// NodeSpec declares one machine.
type NodeSpec struct {
	Name     string `json:"name"`
	MemoryMB int64  `json:"memoryMB"`
	VCores   int64  `json:"vcores"`
	// Tags are static machine attributes (e.g. "gpu", "ssd"), attached as
	// permanent tags (§4.1).
	Tags []constraint.Tag `json:"tags,omitempty"`
	// Unavailable marks the node down from the start.
	Unavailable bool `json:"unavailable,omitempty"`
}

// Validate checks the spec for structural problems.
func (s *Spec) Validate() error {
	if len(s.Nodes) == 0 {
		return fmt.Errorf("cluster: spec has no nodes")
	}
	seen := make(map[string]bool, len(s.Nodes))
	for i, n := range s.Nodes {
		if n.Name == "" {
			return fmt.Errorf("cluster: node %d has no name", i)
		}
		if seen[n.Name] {
			return fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
		if n.MemoryMB <= 0 || n.VCores <= 0 {
			return fmt.Errorf("cluster: node %q has non-positive capacity <%dMB,%dc>", n.Name, n.MemoryMB, n.VCores)
		}
	}
	for group, sets := range s.Groups {
		if group == string(constraint.Node) {
			return fmt.Errorf("cluster: group %q is predefined and managed automatically", group)
		}
		for _, set := range sets {
			for _, name := range set {
				if !seen[name] {
					return fmt.Errorf("cluster: group %q references unknown node %q", group, name)
				}
			}
		}
	}
	return nil
}

// FromSpec builds a cluster from a validated spec.
func FromSpec(s *Spec) (*Cluster, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	c := New()
	idOf := make(map[string]NodeID, len(s.Nodes))
	for _, n := range s.Nodes {
		id := c.AddNode(n.Name, resource.New(n.MemoryMB, n.VCores))
		idOf[n.Name] = id
		if len(n.Tags) > 0 {
			c.AddStaticTags(id, n.Tags...)
		}
		if n.Unavailable {
			c.SetAvailable(id, false)
		}
	}
	for group, sets := range s.Groups {
		nodeSets := make([][]NodeID, len(sets))
		for i, set := range sets {
			nodeSets[i] = make([]NodeID, len(set))
			for j, name := range set {
				nodeSets[i][j] = idOf[name]
			}
		}
		if err := c.RegisterGroup(constraint.GroupName(group), nodeSets); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// LoadSpec decodes a JSON spec and builds the cluster.
func LoadSpec(r io.Reader) (*Cluster, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("cluster: decoding spec: %w", err)
	}
	return FromSpec(&s)
}

// Snapshot is a point-in-time, JSON-serialisable view of cluster state.
// It is full-fidelity: FromSnapshot rebuilds an equivalent cluster —
// topology, every allocation (including static-attribute
// pseudo-containers) and the runtime node state machine (up / draining /
// down) all round-trip, so a restart-recovery checkpoint loses nothing.
type Snapshot struct {
	Nodes      []NodeSnapshot `json:"nodes"`
	Containers int            `json:"containers"`
	// MemoryUtilization is used/capacity over memory.
	MemoryUtilization float64 `json:"memoryUtilization"`
	// Groups is the registered topology in Spec form (group name → node
	// sets by node name), minus the automatic "node" group.
	Groups map[string][][]string `json:"groups,omitempty"`
	// Allocations lists every container — real and static-attribute
	// pseudo-containers — sorted by ID.
	Allocations []ContainerSnapshot `json:"allocations,omitempty"`
}

// NodeSnapshot is one node's state in a Snapshot.
type NodeSnapshot struct {
	Name          string `json:"name"`
	CapacityMB    int64  `json:"capacityMB"`
	CapacityCores int64  `json:"capacityCores"`
	UsedMB        int64  `json:"usedMB"`
	FreeMB        int64  `json:"freeMB"`
	UsedCores     int64  `json:"usedCores"`
	Containers    int    `json:"containers"`
	Available     bool   `json:"available"`
	State         string `json:"state"`
}

// ContainerSnapshot is one allocation in a Snapshot. Static-attribute
// pseudo-containers carry zero demand and their "static:" ID.
type ContainerSnapshot struct {
	ID       string           `json:"id"`
	Node     string           `json:"node"`
	MemoryMB int64            `json:"memoryMB,omitempty"`
	VCores   int64            `json:"vcores,omitempty"`
	Tags     []constraint.Tag `json:"tags,omitempty"`
}

// TakeSnapshot captures the current state.
func (c *Cluster) TakeSnapshot() Snapshot {
	snap := Snapshot{
		Containers:        c.NumContainers(),
		MemoryUtilization: c.MemoryUtilization(),
	}
	for _, n := range c.nodes {
		snap.Nodes = append(snap.Nodes, NodeSnapshot{
			Name:          n.Name,
			CapacityMB:    n.Capacity.MemoryMB,
			CapacityCores: n.Capacity.VCores,
			UsedMB:        n.used.MemoryMB,
			FreeMB:        n.Free().MemoryMB,
			UsedCores:     n.used.VCores,
			Containers:    len(n.containers),
			Available:     n.Available(),
			State:         n.state.String(),
		})
	}
	for name, g := range c.groups {
		if name == constraint.Node {
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
		snap.Groups[string(name)] = sets
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

// staticSeqOf extracts the sequence number from a static-attribute
// pseudo-container ID ("static:<node>#<seq>"); 0 when malformed.
func staticSeqOf(id ContainerID) int {
	var node, seq int
	if _, err := fmt.Sscanf(string(id), "static:%d#%d", &node, &seq); err != nil {
		return 0
	}
	return seq
}

// FromSnapshot rebuilds a cluster from a full-fidelity snapshot:
// topology first, then every allocation while all nodes are still up
// (static pseudo-containers are inserted directly, real containers
// through Allocate so bookkeeping is re-derived and re-validated), and
// the node state machine last, so containers resident on draining nodes
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
		id := ContainerID(a.ID)
		tags := append([]constraint.Tag(nil), a.Tags...)
		if isStaticID(id) {
			if _, exists := c.containers[id]; exists {
				return nil, fmt.Errorf("cluster: snapshot has duplicate container %s", id)
			}
			c.containers[id] = &containerInfo{node: nid, tags: tags}
			c.nodes[nid].containers = append(c.nodes[nid].containers, id)
			c.addTags(nid, tags)
			c.staticCount++
			if seq := staticSeqOf(id); seq > c.staticSeq {
				c.staticSeq = seq
			}
			continue
		}
		if err := c.Allocate(nid, id, resource.New(a.MemoryMB, a.VCores), tags); err != nil {
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
