package cluster

import (
	"sort"

	"medea/internal/constraint"
	"medea/internal/resource"
)

// Runtime node state transitions. The offline resilience replay (§7.3)
// scores static placements against an unavailability trace after the
// fact; these transitions instead let failures happen *while the system
// runs*: a failing node evicts its containers, the scheduler learns which
// ones were lost, and the recovery loop in core re-places them.

// Eviction describes one container displaced by a node state transition,
// carrying everything needed to re-request an equivalent container and,
// unjournaled, what it was charged to.
type Eviction struct {
	Container ContainerID
	Node      NodeID
	Demand    resource.Vector
	Tags      []constraint.Tag
	Owner     Owner `json:"-"`
}

// knownNode reports whether the ID names a node of this cluster. State
// transitions on unknown IDs are no-ops, not panics: failure reports come
// from outside the scheduler and may be stale or malformed.
func (c *Cluster) knownNode(node NodeID) bool {
	return node >= 0 && int(node) < len(c.nodes)
}

// residentEvictions snapshots the node's containers as Eviction
// records, sorted by container ID for determinism, releasing each when
// release is set.
func (c *Cluster) residentEvictions(node NodeID, release bool) []Eviction {
	out := make([]Eviction, 0, c.nodes[node].count)
	for id, info := range c.containers {
		if info.node == node {
			out = append(out, Eviction{Container: id, Node: node, Demand: info.demand, Tags: info.tags, Owner: info.owner})
			if release {
				c.release(id, info)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Container < out[j].Container })
	return out
}

// FailNode takes a node down at runtime: the node stops accepting
// allocations and every resident container is evicted (released exactly
// once) and reported, so the caller can re-queue the lost work. Failing
// a node that is already down is a no-op returning nil, as is failing an
// unknown node ID; failing a draining node evicts whatever was still
// resident.
func (c *Cluster) FailNode(node NodeID) []Eviction {
	if !c.knownNode(node) || c.nodes[node].state == NodeDown {
		return nil
	}
	c.nodes[node].state = NodeDown
	return c.residentEvictions(node, true)
}

// DrainNode starts planned maintenance: the node stops accepting new
// allocations but resident containers keep running until the caller
// relocates them (the returned set, in the same Eviction form FailNode
// uses, is what still needs a new home). Draining a node that is already
// draining or down — or an unknown node ID — is a no-op returning nil.
func (c *Cluster) DrainNode(node NodeID) []Eviction {
	if !c.knownNode(node) || c.nodes[node].state != NodeUp {
		return nil
	}
	c.nodes[node].state = NodeDraining
	return c.residentEvictions(node, false)
}

// RecoverNode brings a failed or draining node back into service. It
// reports whether the state changed (false when the node was already up
// or the ID is unknown), making repeated recovery idempotent.
func (c *Cluster) RecoverNode(node NodeID) bool {
	if !c.knownNode(node) {
		return false
	}
	n := c.nodes[node]
	if n.state == NodeUp {
		return false
	}
	n.state = NodeUp
	return true
}
