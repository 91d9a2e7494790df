package cluster

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"medea/internal/constraint"
	"medea/internal/resource"
)

// Allocate places a container on a node, charging its resource demand and
// adding its tags to the node's tag set and to the tag set of every node
// set (in every group) containing the node. It fails when the node lacks
// free resources, is unavailable, or the container ID is already in use.
func (c *Cluster) Allocate(node NodeID, id ContainerID, demand resource.Vector, tags []constraint.Tag) error {
	if int(node) < 0 || int(node) >= len(c.nodes) {
		return fmt.Errorf("cluster: allocate on unknown node %d", node)
	}
	if _, exists := c.containers[id]; exists {
		return fmt.Errorf("cluster: container %s already allocated", id)
	}
	n := c.nodes[node]
	if n.state != NodeUp {
		return fmt.Errorf("cluster: node %s is %s", n.Name, n.state)
	}
	if !demand.Fits(n.Free()) {
		return fmt.Errorf("cluster: container %s %v does not fit on %s (free %v)",
			id, demand, n.Name, n.Free())
	}
	n.used = n.used.Add(demand)
	n.containers = append(n.containers, id)
	c.addTags(node, tags)
	c.containers[id] = &containerInfo{node: node, demand: demand, tags: append([]constraint.Tag(nil), tags...)}
	return nil
}

// Release frees a container, returning its resources and removing its tags
// (the node tag set is dynamic: tags are removed when the container
// finishes execution, §4.1).
func (c *Cluster) Release(id ContainerID) error {
	info, ok := c.containers[id]
	if !ok {
		return fmt.Errorf("cluster: release of unknown container %s", id)
	}
	n := c.nodes[info.node]
	n.used = n.used.Sub(info.demand)
	if i := slices.Index(n.containers, id); i >= 0 {
		n.containers = slices.Delete(n.containers, i, i+1)
	}
	c.removeTags(info.node, info.tags)
	delete(c.containers, id)
	return nil
}

// addTags inserts one container's tags into the node tag set and into
// every containing node-set tag set of every registered group. The "node"
// group shares the node's own tag set, so it is skipped to avoid double
// counting.
func (c *Cluster) addTags(node NodeID, tags []constraint.Tag) {
	c.nodes[node].tags.AddContainer(tags)
	for name, g := range c.groups {
		if name == constraint.Node {
			continue
		}
		for _, sid := range g.setsOf(node) {
			g.tagSets[sid].AddContainer(tags)
		}
	}
}

func (c *Cluster) removeTags(node NodeID, tags []constraint.Tag) {
	c.nodes[node].tags.RemoveContainer(tags)
	for name, g := range c.groups {
		if name == constraint.Node {
			continue
		}
		for _, sid := range g.setsOf(node) {
			g.tagSets[sid].RemoveContainer(tags)
		}
	}
}

// AddStaticTags attaches permanent machine attributes (e.g. "gpu") to a
// node, expressed as a synthetic never-released container so the tag model
// subsumes static attributes (§4.1 "a subset of a node tag set can also be
// defined statically").
func (c *Cluster) AddStaticTags(node NodeID, tags ...constraint.Tag) {
	c.staticSeq++
	c.staticCount++
	id := ContainerID(fmt.Sprintf("static:%d#%d", node, c.staticSeq))
	c.containers[id] = &containerInfo{node: node, tags: append([]constraint.Tag(nil), tags...)}
	c.nodes[node].containers = append(c.nodes[node].containers, id)
	c.addTags(node, tags)
}

// ContainerNode returns the node hosting a container.
func (c *Cluster) ContainerNode(id ContainerID) (NodeID, bool) {
	info, ok := c.containers[id]
	if !ok {
		return 0, false
	}
	return info.node, true
}

// ContainerTags returns the tags of an allocated container.
func (c *Cluster) ContainerTags(id ContainerID) ([]constraint.Tag, bool) {
	info, ok := c.containers[id]
	if !ok {
		return nil, false
	}
	return info.tags, true
}

// NumContainers returns the number of allocated containers cluster-wide,
// excluding static-attribute pseudo-containers.
func (c *Cluster) NumContainers() int { return len(c.containers) - c.staticCount }

// Gamma returns γ𝒮(expr): the number of containers in set sid of the
// group whose tag vectors match the whole conjunction expr (§4.1).
func (c *Cluster) Gamma(name constraint.GroupName, sid SetID, expr constraint.Expr) int {
	g := c.groups[name]
	if g == nil {
		return 0
	}
	return g.tagSets[sid].CountExpr(expr)
}

// GammaBoth is Gamma over the conjunction a ∧ b, without the caller
// having to build the joined expression.
func (c *Cluster) GammaBoth(name constraint.GroupName, sid SetID, a, b constraint.Expr) int {
	g := c.groups[name]
	if g == nil {
		return 0
	}
	return g.tagSets[sid].CountBoth(a, b)
}

// GammaNode is Gamma over the singleton set of the "node" group.
func (c *Cluster) GammaNode(node NodeID, expr constraint.Expr) int {
	return c.nodes[node].tags.CountExpr(expr)
}

// SetAvailable marks a node up or down WITHOUT evicting its containers
// (their fate is the application's concern, as in the offline resilience
// replay of §7.3); it only gates new allocations. Live failure handling —
// eviction plus recovery — goes through FailNode/RecoverNode instead.
func (c *Cluster) SetAvailable(node NodeID, up bool) {
	if up {
		c.nodes[node].state = NodeUp
	} else {
		c.nodes[node].state = NodeDown
	}
}

// Clone returns an independent copy of the cluster, used by schedulers
// for tentative what-if placement without disturbing live state. It is a
// structural copy: node structs, resident sets, the container map and
// every tag multiset are copied directly; the group topology and the
// containers' tag slices are immutable once written and are shared.
// Concurrent Clones of one cluster are safe (they only read it).
func (c *Cluster) Clone() *Cluster {
	cc := &Cluster{
		nodes:       make([]*Node, len(c.nodes)),
		groups:      make(map[constraint.GroupName]*group, len(c.groups)),
		containers:  maps.Clone(c.containers),
		staticSeq:   c.staticSeq,
		staticCount: c.staticCount,
		capacity:    c.capacity,
	}
	nodes := make([]Node, len(c.nodes))
	for i, n := range c.nodes {
		nodes[i] = *n
		nodes[i].tags = n.tags.Clone()
		nodes[i].containers = slices.Clone(n.containers)
		cc.nodes[i] = &nodes[i]
	}
	for name, g := range c.groups {
		// Capacity-clamped: an append on either side reallocates instead
		// of writing into an array the other side can reach.
		ng := &group{
			sets:     g.sets[:len(g.sets):len(g.sets)],
			ofNode:   g.ofNode[:len(g.ofNode):len(g.ofNode)],
			setNames: g.setNames[:len(g.setNames):len(g.setNames)],
			tagSets:  make([]*constraint.Set, len(g.tagSets)),
		}
		for i, ts := range g.tagSets {
			if name == constraint.Node {
				ng.tagSets[i] = cc.nodes[i].tags // set i of the node group is node i's own tag set
			} else {
				ng.tagSets[i] = ts.Clone()
			}
		}
		cc.groups[name] = ng
	}
	return cc
}

// ContainerIDs returns all allocated container IDs, sorted, excluding
// static-attribute pseudo-containers.
func (c *Cluster) ContainerIDs() []ContainerID {
	out := make([]ContainerID, 0, len(c.containers))
	for id := range c.containers {
		if isStaticID(id) {
			continue
		}
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ContainerDemand returns the resource demand of an allocated container
// (zero for unknown IDs and static-attribute pseudo-containers).
func (c *Cluster) ContainerDemand(id ContainerID) resource.Vector {
	if info, ok := c.containers[id]; ok {
		return info.demand
	}
	return resource.Vector{}
}

// CheckAccounting verifies the cluster's internal bookkeeping invariants:
// every container references a known node and appears in that node's
// resident set (and vice versa), per-node used resources equal the sum of
// resident container demands, and no node's usage is negative or above
// capacity. It returns the first violation found, or nil. The audit layer
// runs it post-commit to catch state corruption before it spreads.
func (c *Cluster) CheckAccounting() error {
	perNode := make([]resource.Vector, len(c.nodes))
	for id, info := range c.containers {
		if int(info.node) < 0 || int(info.node) >= len(c.nodes) {
			return fmt.Errorf("cluster: container %s on unknown node %d", id, info.node)
		}
		if !slices.Contains(c.nodes[info.node].containers, id) {
			return fmt.Errorf("cluster: container %s missing from node %s resident set", id, c.nodes[info.node].Name)
		}
		perNode[info.node] = perNode[info.node].Add(info.demand)
	}
	for _, n := range c.nodes {
		for i, id := range n.containers {
			if info, ok := c.containers[id]; !ok || info.node != n.ID || slices.Contains(n.containers[:i], id) {
				return fmt.Errorf("cluster: node %s lists unknown container %s", n.Name, id)
			}
		}
		if !n.used.IsNonNegative() {
			return fmt.Errorf("cluster: node %s has negative usage %v", n.Name, n.used)
		}
		if n.used != perNode[n.ID] {
			return fmt.Errorf("cluster: node %s usage %v != sum of container demands %v",
				n.Name, n.used, perNode[n.ID])
		}
		if !n.used.Fits(n.Capacity) {
			return fmt.Errorf("cluster: node %s overcommitted: used %v > capacity %v",
				n.Name, n.used, n.Capacity)
		}
	}
	return nil
}
