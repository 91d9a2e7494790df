package cluster

import (
	"fmt"
	"maps"
	"slices"

	"medea/internal/constraint"
	"medea/internal/resource"
)

// Allocate places a container on a node, charging its resource demand and
// adding its tags to the node's tag set and to the tag set of every node
// set (in every group) containing the node. An untagged container (a
// task's) is kept out of the tag sets: no valid constraint expression is
// empty, so no γ could count it. It fails when the demand is
// negative, the node lacks free resources or is unavailable, or the
// container ID is already in use.
func (c *Cluster) Allocate(node NodeID, id ContainerID, demand resource.Vector, tags []constraint.Tag) error {
	return c.AllocateOwned(node, id, demand, tags, 0)
}

// AllocateOwned is Allocate charging the container to owner, which
// ReleaseOwned must then name.
func (c *Cluster) AllocateOwned(node NodeID, id ContainerID, demand resource.Vector, tags []constraint.Tag, owner Owner) error {
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
	if !demand.IsNonNegative() {
		return fmt.Errorf("cluster: container %s has negative demand %v", id, demand)
	}
	if !demand.Fits(n.Free()) {
		return fmt.Errorf("cluster: container %s %v does not fit on %s (free %v)",
			id, demand, n.Name, n.Free())
	}
	n.used = n.used.Add(demand)
	n.count++
	if len(tags) > 0 {
		c.moveTags(node, tags, true)
	}
	c.containers[id] = containerInfo{node: node, demand: demand, tags: append([]constraint.Tag(nil), tags...), owner: owner}
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
	c.release(id, info)
	return nil
}

// ReleaseOwned frees a container AllocateOwned charged to owner and
// returns its demand. It refuses, changing nothing, any other container.
func (c *Cluster) ReleaseOwned(id ContainerID, owner Owner) (resource.Vector, error) {
	info, ok := c.containers[id]
	if !ok || owner == 0 || info.owner != owner {
		return resource.Vector{}, fmt.Errorf("cluster: release of %s, not a container of owner %d", id, owner)
	}
	c.release(id, info)
	return info.demand, nil
}

func (c *Cluster) release(id ContainerID, info containerInfo) {
	n := c.nodes[info.node]
	n.used = n.used.Sub(info.demand)
	n.count--
	if len(info.tags) > 0 {
		c.moveTags(info.node, info.tags, false)
	}
	delete(c.containers, id)
}

// moveTags adds one container's tags to, or removes them from, the tag
// set of every node set (in every group, the node's own singleton set
// of the "node" group included) containing the node, and the cluster's
// count of each tag. The tags are hashed once for all those sets.
func (c *Cluster) moveTags(node NodeID, tags []constraint.Tag, add bool) {
	h := constraint.VectorHash(tags)
	for _, g := range c.groups {
		for _, sid := range g.setsOf(node) {
			if add {
				g.tagSets[sid].AddContainer(tags, h)
			} else {
				g.tagSets[sid].RemoveContainer(tags, h)
			}
		}
	}
	for i, t := range tags {
		if slices.Contains(tags[:i], t) {
			continue // counted at its first occurrence
		}
		if add {
			c.carried[t]++
		} else if n := c.carried[t] - 1; n > 0 {
			c.carried[t] = n
		} else {
			delete(c.carried, t)
		}
	}
}

// Carries reports whether every tag of e is carried by some allocated
// container. When it is false, γ(e) is 0 in every set of every group;
// when it is true, some γ(e) may still be 0 everywhere, as the tags of
// e may sit on different containers. An empty e matches every tagged
// container.
func (c *Cluster) Carries(e constraint.Expr) bool {
	if len(e) == 0 {
		return len(c.carried) > 0
	}
	for _, t := range e {
		if c.carried[t] == 0 {
			return false
		}
	}
	return true
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

// EachContainer calls fn with every allocated container, its node and its
// tags, in no particular order. The tag slices are the container map's
// own: fn must not modify them, nor change the cluster.
func (c *Cluster) EachContainer(fn func(id ContainerID, node NodeID, tags []constraint.Tag)) {
	for id, info := range c.containers {
		fn(id, info.node, info.tags)
	}
}

// EachNodeVector calls fn with each distinct tag vector of the containers
// on node, its constraint.VectorHash and how many of them carry it (its
// tag multiset's, constraint.Set.EachVector), once, in no particular
// order. Untagged containers have no vector there.
func (c *Cluster) EachNodeVector(node NodeID, fn func(tags []constraint.Tag, hash uint64, count int)) {
	c.nodes[node].tags.EachVector(fn)
}

// NumContainers returns the number of allocated containers cluster-wide.
func (c *Cluster) NumContainers() int { return len(c.containers) }

// Gamma returns γ𝒮(expr): the number of containers in set sid of the
// group whose tag vectors match the whole conjunction expr (§4.1).
func (c *Cluster) Gamma(name constraint.GroupName, sid SetID, expr constraint.Expr) int {
	g := c.group(name)
	if g == nil {
		return 0
	}
	return g.tagSets[sid].CountExpr(expr)
}

// GammaAtom returns the three γ of set sid of the group that an atom
// with the given subject and target reads there — γ(target),
// γ(subject) and γ(subject ∧ target) — in one scan of the set
// (constraint.Set.CountAtom).
func (c *Cluster) GammaAtom(name constraint.GroupName, sid SetID, subject, target constraint.Expr) (nTarget, nSubject, nBoth int) {
	g := c.group(name)
	if g == nil {
		return 0, 0, 0
	}
	return g.tagSets[sid].CountAtom(subject, target)
}

// GammaNode is Gamma over the singleton set of the "node" group.
func (c *Cluster) GammaNode(node NodeID, expr constraint.Expr) int {
	return c.nodes[node].tags.CountExpr(expr)
}

// Clone returns an independent copy of the cluster, for a caller that
// needs the current state beside one that changes it: a recovery check
// or a benchmark probe that must not touch the live cluster.
// It is a structural copy: node structs, the container map, the tag
// counts and every tag multiset are copied directly; the group topology
// and the containers' tag slices are immutable once written and are
// shared.
// Concurrent Clones of one cluster are safe (they only read it).
func (c *Cluster) Clone() *Cluster {
	cc := &Cluster{
		nodes:      make([]*Node, len(c.nodes)),
		groups:     make([]*group, len(c.groups)),
		containers: maps.Clone(c.containers),
		owners:     c.owners,
		capacity:   c.capacity,
		carried:    maps.Clone(c.carried),
	}
	nodes := make([]Node, len(c.nodes))
	for i, n := range c.nodes {
		nodes[i] = *n
		nodes[i].tags = n.tags.Clone()
		cc.nodes[i] = &nodes[i]
	}
	for gi, g := range c.groups {
		// Capacity-clamped: an append on either side reallocates instead
		// of writing into an array the other side can reach.
		ng := &group{
			name:     g.name,
			sets:     g.sets[:len(g.sets):len(g.sets)],
			ofNode:   g.ofNode[:len(g.ofNode):len(g.ofNode)],
			setNames: g.setNames[:len(g.setNames):len(g.setNames)],
			tagSets:  make([]*constraint.Set, len(g.tagSets)),
		}
		for i, ts := range g.tagSets {
			if g.name == constraint.Node {
				ng.tagSets[i] = cc.nodes[i].tags // set i of the node group is node i's own tag set
			} else {
				ng.tagSets[i] = ts.Clone()
			}
		}
		cc.groups[gi] = ng
	}
	return cc
}

// CheckAccounting verifies the cluster's internal bookkeeping invariants:
// every container references a known node, per-node used resources and
// container counts equal the sums over the container map, so do the
// cluster's per-tag counts (Carries), and no node's usage is negative
// or above capacity. It returns the first violation found, or nil. The
// audit layer runs it post-commit to catch state corruption before it
// spreads.
func (c *Cluster) CheckAccounting() error {
	perNode := make([]resource.Vector, len(c.nodes))
	count := make([]int, len(c.nodes))
	carried := make(map[constraint.Tag]int, len(c.carried))
	for id, info := range c.containers {
		if int(info.node) < 0 || int(info.node) >= len(c.nodes) {
			return fmt.Errorf("cluster: container %s on unknown node %d", id, info.node)
		}
		perNode[info.node] = perNode[info.node].Add(info.demand)
		count[info.node]++
		for i, t := range info.tags {
			if !slices.Contains(info.tags[:i], t) {
				carried[t]++
			}
		}
	}
	if !maps.Equal(c.carried, carried) {
		return fmt.Errorf("cluster: per-tag counts %v, the container map %v", c.carried, carried)
	}
	for _, n := range c.nodes {
		if n.count != count[n.ID] {
			return fmt.Errorf("cluster: node %s counts %d containers, the container map %d", n.Name, n.count, count[n.ID])
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

// Diff describes the first difference between the allocation state of c
// and o — per node its state, used resources and container count, the
// container map (node, demand, tags and owner of each container), and
// the tag multiset (every γ) of every set of every group — or returns ""
// when there is none. The topology, which Clone shares, is not compared.
// Tests use it to show that a planner returned the cluster it was handed
// as it found it.
func (c *Cluster) Diff(o *Cluster) string {
	if len(c.nodes) != len(o.nodes) {
		return fmt.Sprintf("%d nodes, %d", len(c.nodes), len(o.nodes))
	}
	for i, n := range c.nodes {
		m := o.nodes[i]
		if n.state != m.state || n.used != m.used || n.count != m.count {
			return fmt.Sprintf("node %s: %s, used %v, %d containers; %s, used %v, %d containers",
				n.Name, n.state, n.used, n.count, m.state, m.used, m.count)
		}
	}
	same := func(a, b containerInfo) bool {
		return a.node == b.node && a.demand == b.demand && a.owner == b.owner && slices.Equal(a.tags, b.tags)
	}
	if !maps.EqualFunc(c.containers, o.containers, same) {
		return fmt.Sprintf("container maps differ: %d containers, %d", len(c.containers), len(o.containers))
	}
	if !slices.Equal(c.Groups(), o.Groups()) {
		return fmt.Sprintf("groups %v, %v", c.Groups(), o.Groups())
	}
	for _, name := range c.Groups() {
		sets, other := c.group(name).tagSets, o.group(name).tagSets
		if len(sets) != len(other) {
			return fmt.Sprintf("group %s: %d sets, %d", name, len(sets), len(other))
		}
		for sid, ts := range sets {
			if !ts.Equal(other[sid]) {
				return fmt.Sprintf("%s set %d: γ %s, %s", name, sid, ts, other[sid])
			}
		}
	}
	return ""
}
