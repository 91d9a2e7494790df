package cluster

import (
	"medea/internal/metrics"
	"medea/internal/resource"
)

// FragmentationThreshold is the paper's fragmented-node criterion (§7.4):
// a node is fragmented when it has less than 1 core / 2 GB RAM free and is
// not fully utilised.
var FragmentationThreshold = resource.New(2048, 1)

// FragmentedNodeFraction returns the fraction of nodes that are
// fragmented: free resources strictly below the threshold in at least one
// dimension, but not exactly zero (fully utilised nodes do not count).
func (c *Cluster) FragmentedNodeFraction() float64 {
	if len(c.nodes) == 0 {
		return 0
	}
	frag := 0
	for _, n := range c.nodes {
		free := n.Free()
		if free.IsZero() {
			continue // fully utilised
		}
		if !FragmentationThreshold.Fits(free) {
			frag++
		}
	}
	return float64(frag) / float64(len(c.nodes))
}

// MemoryUtilizationCV returns the coefficient of variation of per-node
// memory utilisation, the paper's proxy for load imbalance (§7.4).
func (c *Cluster) MemoryUtilizationCV() float64 {
	utils := make([]float64, 0, len(c.nodes))
	for _, n := range c.nodes {
		if n.Capacity.MemoryMB == 0 {
			continue
		}
		utils = append(utils, float64(n.used.MemoryMB)/float64(n.Capacity.MemoryMB))
	}
	return metrics.CV(utils)
}

// MemoryUtilization returns total memory used / total memory capacity.
func (c *Cluster) MemoryUtilization() float64 {
	var used, cap int64
	for _, n := range c.nodes {
		used += n.used.MemoryMB
		cap += n.Capacity.MemoryMB
	}
	if cap == 0 {
		return 0
	}
	return float64(used) / float64(cap)
}
