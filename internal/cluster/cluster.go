// Package cluster models the shared cluster state that both of Medea's
// schedulers operate on: nodes with vector capacities, racks and other
// (possibly overlapping) node groups, per-node and per-node-set tag
// multisets with their γ cardinality functions, and container
// allocation/release bookkeeping (Figure 6, "Cluster State").
package cluster

import (
	"fmt"
	"sort"
	"strconv"

	"medea/internal/constraint"
	"medea/internal/resource"
)

// NodeID identifies a node by dense index; stable for the cluster's life.
type NodeID int

// SetID identifies one node set within a node group (e.g. one rack within
// the "rack" group) by dense index within that group.
type SetID int

// ContainerID uniquely identifies a running or requested container, by
// convention "appID#index" (e.g. "hb-0042#3").
type ContainerID string

// MakeContainerID builds the conventional container ID.
func MakeContainerID(appID string, index int) ContainerID {
	return ContainerID(appID + "#" + strconv.Itoa(index))
}

// NodeState is the runtime availability state of a node.
type NodeState uint8

const (
	// NodeUp accepts new allocations.
	NodeUp NodeState = iota
	// NodeDraining refuses new allocations but keeps resident containers
	// running (planned maintenance; §2.3 upgrades).
	NodeDraining
	// NodeDown is failed or under upgrade: no allocations, and resident
	// containers were evicted when the node went down.
	NodeDown
)

// String renders the state for diagnostics.
func (s NodeState) String() string {
	switch s {
	case NodeUp:
		return "up"
	case NodeDraining:
		return "draining"
	default:
		return "down"
	}
}

// Node is a cluster machine.
type Node struct {
	ID       NodeID
	Name     string
	Capacity resource.Vector

	used  resource.Vector
	tags  *constraint.Set
	state NodeState
	// count is the number of resident containers; the container map
	// alone records which they are.
	count int
}

// Used returns the resources currently allocated on the node.
func (n *Node) Used() resource.Vector { return n.used }

// Free returns the resources currently free on the node; zero when the
// node is not accepting allocations (draining or down).
func (n *Node) Free() resource.Vector {
	if n.state != NodeUp {
		return resource.Vector{}
	}
	return n.Capacity.Sub(n.used)
}

// Available reports whether the node accepts new allocations (up, not
// draining and not failed / under upgrade).
func (n *Node) Available() bool { return n.state == NodeUp }

// State returns the node's runtime availability state.
func (n *Node) State() NodeState { return n.state }

// NumContainers returns the number of containers on the node.
func (n *Node) NumContainers() int { return n.count }

// Owner is what a container is charged to, opaque to the cluster: 0 for
// an LRA container, otherwise a value NewOwners handed out.
type Owner int

// containerInfo is the one record of a container, held by value in the
// container map and written once, at allocation.
type containerInfo struct {
	node   NodeID
	demand resource.Vector
	tags   []constraint.Tag
	owner  Owner
}

// group is one node group. sets, ofNode and setNames are the topology,
// which Clone shares between clusters: it is never written in place,
// only extended (AddNode, RegisterGroup). tagSets is per-cluster state.
type group struct {
	name     constraint.GroupName
	sets     [][]NodeID        // members of each set
	ofNode   [][]SetID         // node -> sets containing it; may be shorter than the node list
	tagSets  []*constraint.Set // γ per set, maintained incrementally
	setNames []string          // optional human names
}

// setsOf returns the sets containing the node (nil for nodes added after
// the group's last registration).
func (g *group) setsOf(node NodeID) []SetID {
	if int(node) >= len(g.ofNode) {
		return nil
	}
	return g.ofNode[node]
}

// Cluster is the mutable cluster state. It is not safe for concurrent
// mutation; Medea serialises all allocations through the task-based
// scheduler (§3), so a single-writer discipline holds by design.
type Cluster struct {
	nodes []*Node
	// groups is searched by name: a cluster registers a handful of
	// groups, and every γ query names one, so a scan of a few string
	// compares (equal names mostly share their bytes) beats hashing the
	// name on every query.
	groups     []*group
	containers map[ContainerID]containerInfo
	// owners is the last owner value NewOwners handed out.
	owners Owner
	// capacity is the sum of the nodes' capacities, fixed per node at
	// AddNode: every idle task-scheduler heartbeat asks for it.
	capacity resource.Vector
	// carried counts, per tag, the allocated containers that carry it
	// (a tag repeated in one container's vector counts once); a tag no
	// container carries has no entry. moveTags keeps it.
	carried map[constraint.Tag]int
}

// New returns an empty cluster.
func New() *Cluster {
	return &Cluster{containers: make(map[ContainerID]containerInfo), carried: make(map[constraint.Tag]int)}
}

// NewOwners hands out n consecutive owner values that this cluster (or
// the one it was cloned from) never handed out, and returns the first.
func (c *Cluster) NewOwners(n int) Owner {
	c.owners += Owner(n)
	return c.owners - Owner(n) + 1
}

// group returns the registered group called name, or nil.
func (c *Cluster) group(name constraint.GroupName) *group {
	for _, g := range c.groups {
		if g.name == name {
			return g
		}
	}
	return nil
}

// addGroup returns the group called name, registering an empty one
// first if there is none.
func (c *Cluster) addGroup(name constraint.GroupName) *group {
	g := c.group(name)
	if g == nil {
		g = &group{name: name}
		c.groups = append(c.groups, g)
	}
	return g
}

// AddNode appends a node with the given capacity and returns its ID. The
// node is automatically registered as a singleton set of the predefined
// "node" group.
func (c *Cluster) AddNode(name string, capacity resource.Vector) NodeID {
	id := NodeID(len(c.nodes))
	n := &Node{
		ID:       id,
		Name:     name,
		Capacity: capacity,
		tags:     constraint.NewSet(),
		state:    NodeUp,
	}
	c.nodes = append(c.nodes, n)
	c.capacity = c.capacity.Add(capacity)
	g := c.addGroup(constraint.Node)
	// The node group's set i is {node i} and shares the node's own tag
	// set; its topology only ever grows by whole entries, so plain appends
	// are safe next to clones.
	g.sets = append(g.sets, []NodeID{id})
	g.ofNode = append(g.ofNode, []SetID{SetID(id)})
	g.tagSets = append(g.tagSets, n.tags)
	g.setNames = append(g.setNames, name)
	return id
}

// RegisterGroup registers (or extends) a node group with the given node
// sets. Sets within a group may overlap; a node may also appear in no set
// of a group, in which case constraints over that group never bind it.
// The predefined "node" group is managed automatically and cannot be
// registered.
func (c *Cluster) RegisterGroup(name constraint.GroupName, sets [][]NodeID) error {
	if name == constraint.Node {
		return fmt.Errorf("cluster: group %q is predefined", name)
	}
	g := c.addGroup(name)
	for _, set := range sets {
		for _, nid := range set {
			if int(nid) < 0 || int(nid) >= len(c.nodes) {
				return fmt.Errorf("cluster: group %q references unknown node %d", name, nid)
			}
		}
	}
	// Clones may share this group's topology. Their outer slices are
	// capacity-clamped, so appends reallocate; ofNode is the one slice
	// whose existing entries grow, so it is rebuilt rather than updated.
	ofNode := make([][]SetID, len(c.nodes))
	copy(ofNode, g.ofNode)
	for _, set := range sets {
		sid := SetID(len(g.sets))
		members := append([]NodeID(nil), set...)
		ts := constraint.NewSet()
		for _, nid := range members {
			ofNode[nid] = append(ofNode[nid][:len(ofNode[nid]):len(ofNode[nid])], sid)
			ts.Merge(c.nodes[nid].tags)
		}
		g.sets = append(g.sets, members)
		g.tagSets = append(g.tagSets, ts)
		g.setNames = append(g.setNames, fmt.Sprintf("%s-%d", name, sid))
	}
	g.ofNode = ofNode
	return nil
}

// Grid builds the standard experimental topology: numNodes uniform nodes
// named "nN", split into consecutive racks of rackSize nodes (the last
// rack may be smaller). It mirrors the paper's simulated clusters, e.g.
// 500 machines in 10 racks (§7.4).
func Grid(numNodes, rackSize int, capacity resource.Vector) *Cluster {
	c := New()
	var racks [][]NodeID
	var cur []NodeID
	for i := 0; i < numNodes; i++ {
		id := c.AddNode(fmt.Sprintf("n%d", i), capacity)
		cur = append(cur, id)
		if len(cur) == rackSize {
			racks = append(racks, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		racks = append(racks, cur)
	}
	if err := c.RegisterGroup(constraint.Rack, racks); err != nil {
		panic(err) // unreachable: nodes were just created
	}
	return c
}

// NumNodes returns the number of nodes.
func (c *Cluster) NumNodes() int { return len(c.nodes) }

// Nodes returns the live node slice (do not append).
func (c *Cluster) Nodes() []*Node { return c.nodes }

// Node returns the node with the given ID.
func (c *Cluster) Node(id NodeID) *Node { return c.nodes[id] }

// Groups returns the registered group names, sorted.
func (c *Cluster) Groups() []constraint.GroupName {
	out := make([]constraint.GroupName, 0, len(c.groups))
	for _, g := range c.groups {
		out = append(out, g.name)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NumSets returns the number of node sets in a group (0 if unknown).
func (c *Cluster) NumSets(name constraint.GroupName) int {
	g := c.group(name)
	if g == nil {
		return 0
	}
	return len(g.sets)
}

// SetMembers returns the node IDs of one set of a group (nil when the
// group is unknown, like SetsOfNode).
func (c *Cluster) SetMembers(name constraint.GroupName, sid SetID) []NodeID {
	g := c.group(name)
	if g == nil {
		return nil
	}
	return g.sets[sid]
}

// SetsOfNode returns the IDs of the sets of a group that contain the node
// (usually exactly one for partitioned groups like racks; nil when the
// group is unknown or the node belongs to no set).
func (c *Cluster) SetsOfNode(name constraint.GroupName, node NodeID) []SetID {
	g := c.group(name)
	if g == nil {
		return nil
	}
	return g.setsOf(node)
}

// TotalCapacity returns the sum of all node capacities.
func (c *Cluster) TotalCapacity() resource.Vector { return c.capacity }

// TotalUsed returns the sum of allocated resources across nodes.
func (c *Cluster) TotalUsed() resource.Vector {
	var t resource.Vector
	for _, n := range c.nodes {
		t = t.Add(n.used)
	}
	return t
}
