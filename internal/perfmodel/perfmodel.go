// Package perfmodel maps container placements to application performance.
//
// The paper measures HBase/YCSB, TensorFlow, Storm+Memcached and GridMix
// on a physical 400-node cluster; this repository substitutes calibrated
// analytical models driven by the *actual placements* the schedulers
// produce. Each model consumes placement features (collocation counts,
// rack spans, network distances, constraint violations) and returns
// performance figures whose relative shape matches the paper's reported
// effects:
//
//   - Figure 2a: collocating Storm with Memcached cuts mean lookup latency
//     ~4.6× versus Storm-only collocation and ~7.6× end-to-end versus no
//     constraints.
//   - Figure 2b: anti-affinity beats no-constraints by ~34% throughput;
//     cgroups recover ~20% but cannot match placement control.
//   - Figures 2c/2d: cardinality has a load-dependent sweet spot (optimum
//     ~4 workers/node on an idle cluster, ~16 on a busy one for
//     TensorFlow; 42%/34% runtime reductions at the optimum).
//   - Figure 7: runtime distributions widen and shift up as placement
//     quality degrades (Medea < J-Kube++ < J-Kube < YARN, up to 2.1×).
//
// Models are deterministic given a *rand.Rand.
package perfmodel

import (
	"math/rand"

	"medea/internal/cluster"
	"medea/internal/constraint"
)

// Distance returns the network distance between two nodes: 0 same node,
// 1 same rack, 2 cross-rack (the paper's cluster has 10 Gbps within and
// 6 Gbps across racks).
func Distance(c *cluster.Cluster, a, b cluster.NodeID) int {
	if a == b {
		return 0
	}
	ra := c.SetsOfNode(constraint.Rack, a)
	rb := c.SetsOfNode(constraint.Rack, b)
	for _, x := range ra {
		for _, y := range rb {
			if x == y {
				return 1
			}
		}
	}
	return 2
}

// MemcachedLatency models one Storm-supervisor→Memcached lookup at the
// given network distance, in milliseconds (Figure 2a). Cross-machine
// lookups pay the network round trip plus congestion from the topology's
// own cross-node traffic; the calibration reproduces the paper's ~4.6×
// mean gap between same-node and remote lookups under load.
func MemcachedLatency(dist int, rng *rand.Rand) float64 {
	var mean float64
	switch dist {
	case 0:
		mean = 35 // local loopback + service time under load
	case 1:
		mean = 160 // intra-rack RTTs + shared NIC congestion
	default:
		mean = 260 // cross-rack, 6 Gbps oversubscribed links
	}
	// Right-skewed service times: shifted exponential.
	return mean*0.4 + rng.ExpFloat64()*mean*0.6
}

// YCSB workload base throughputs in Kops/s for an ideally placed instance
// (Figure 2b's axis; read-heavy workloads are faster, scan-heavy slower).
var ycsbBase = map[byte]float64{
	'A': 42, // 50/50 update/read
	'B': 58, // 95/5 read/update
	'C': 74, // read only
	'D': 62, // read latest
	'E': 24, // short scans
	'F': 46, // read-modify-write
}

// YCSBThroughput models aggregate YCSB throughput (Kops/s) for a workload
// given the average number of *other* region servers collocated with each
// region server, and whether cgroups isolation is enabled (Figure 2b).
// Collocated region servers contend for CPU and I/O; cgroups mitigate the
// kernel-managed share (~55% of the interference) but not CPU caches and
// memory bandwidth.
func YCSBThroughput(workload byte, avgCollocatedOthers float64, cgroups bool, rng *rand.Rand) float64 {
	base, ok := ycsbBase[workload]
	if !ok {
		base = 40
	}
	beta := 0.34 // interference per collocated region server
	if cgroups {
		beta *= 0.45 // cgroups absorb kernel-schedulable interference
	}
	thr := base / (1 + beta*avgCollocatedOthers)
	return thr * (0.95 + rng.Float64()*0.1)
}

// responseSurface is a piecewise-linear response of relative runtime to
// the per-node collocation cap, calibrated to the paper's anchor points.
type responseSurface struct {
	ks   []float64
	low  []float64 // relative runtime, lightly utilised cluster
	high []float64 // relative runtime, highly utilised cluster
}

// tfSurface reproduces Figure 2d (32 workers): low-load optimum at 4
// workers/node, high-load optimum at 16 with 42% reduction vs full
// affinity (32) and 34% vs full anti-affinity (1).
var tfSurface = responseSurface{
	ks:   []float64{1, 4, 8, 16, 32},
	low:  []float64{1.18, 1.00, 1.07, 1.22, 1.55},
	high: []float64{1.52, 1.35, 1.15, 1.00, 1.72},
}

// hbaseSurface reproduces Figure 2c (10 region servers): low-load optimum
// at 2 RS/node, high-load optimum at 4; both extremes hurt.
var hbaseSurface = responseSurface{
	ks:   []float64{1, 2, 4, 8, 10},
	low:  []float64{1.12, 1.00, 1.06, 1.28, 1.42},
	high: []float64{1.38, 1.18, 1.00, 1.30, 1.55},
}

func (s responseSurface) at(k float64, highLoad bool) float64 {
	ys := s.low
	if highLoad {
		ys = s.high
	}
	if k <= s.ks[0] {
		return ys[0]
	}
	for i := 1; i < len(s.ks); i++ {
		if k <= s.ks[i] {
			f := (k - s.ks[i-1]) / (s.ks[i] - s.ks[i-1])
			return ys[i-1]*(1-f) + ys[i]*f
		}
	}
	return ys[len(ys)-1]
}

// TFRuntime returns the TensorFlow workflow runtime in minutes for a
// 32-worker instance whose placement collocates at most maxPerNode
// workers on a node (Figure 2d; base ≈ 95 min at the high-load optimum).
func TFRuntime(maxPerNode int, highLoad bool, rng *rand.Rand) float64 {
	base := 95.0
	f := tfSurface.at(float64(maxPerNode), highLoad)
	if highLoad {
		base *= 1.35 // busy cluster slows even optimal placements
	}
	return base * f * (0.93 + rng.Float64()*0.14)
}

// HBaseRuntime returns the total YCSB suite runtime in minutes for a
// 10-region-server instance capped at maxPerNode region servers per node
// (Figure 2c; base ≈ 22 min at the low-load optimum).
func HBaseRuntime(maxPerNode int, highLoad bool, rng *rand.Rand) float64 {
	base := 22.0
	f := hbaseSurface.at(float64(maxPerNode), highLoad)
	if highLoad {
		base *= 1.5
	}
	return base * f * (0.93 + rng.Float64()*0.14)
}

// PlacementFeatures summarises one deployed instance's placement, the
// input to the Figure-7 runtime model.
type PlacementFeatures struct {
	// MaxCollocated is the maximum number of the instance's workers on
	// one node.
	MaxCollocated int
	// RackSpan is the number of racks the workers span.
	RackSpan int
	// ExternalCollocated is the max count of *other* instances' same-type
	// workers sharing a node with this instance's workers.
	ExternalCollocated int
}

// ExtractFeatures computes PlacementFeatures for the containers of one
// instance whose workers carry workerTag.
func ExtractFeatures(c *cluster.Cluster, ids []cluster.ContainerID, workerTag constraint.Tag) PlacementFeatures {
	var f PlacementFeatures
	perNode := map[cluster.NodeID]int{}
	racks := map[cluster.SetID]bool{}
	own := map[cluster.ContainerID]bool{}
	for _, id := range ids {
		own[id] = true
	}
	var nodes []cluster.NodeID
	for _, id := range ids {
		tags, ok := c.ContainerTags(id)
		if !ok || !constraint.E(workerTag).Matches(tags) {
			continue
		}
		node, _ := c.ContainerNode(id)
		perNode[node]++
		nodes = append(nodes, node)
		for _, r := range c.SetsOfNode(constraint.Rack, node) {
			racks[r] = true
		}
	}
	for node, n := range perNode {
		if n > f.MaxCollocated {
			f.MaxCollocated = n
		}
		// Same-type workers of other instances on this node.
		ext := c.GammaNode(node, constraint.E(workerTag)) - n
		if ext > f.ExternalCollocated {
			f.ExternalCollocated = ext
		}
	}
	f.RackSpan = len(racks)
	return f
}

// InstanceRuntimeConfig calibrates the Figure-7 runtime model for one
// application type.
type InstanceRuntimeConfig struct {
	// Base is the runtime with an ideal placement (minutes or seconds —
	// the unit carries through).
	Base float64
	// CollocationCap is the intended per-node worker cap (the §7.1
	// cardinality template); exceeding it costs ContentionPenalty per
	// excess worker.
	CollocationCap int
	// ContentionPenalty is the relative slowdown per worker above the cap
	// on the worst node (resource interference).
	ContentionPenalty float64
	// RackPenalty is the relative slowdown per extra rack spanned
	// (network cost of violating the rack-affinity template).
	RackPenalty float64
	// ExternalPenalty is the relative slowdown per same-type foreign
	// worker sharing the worst node (inter-application interference).
	ExternalPenalty float64
	// Noise is the multiplicative noise half-width.
	Noise float64
}

// TFInstanceConfig calibrates the Figure-7a TensorFlow model (base ≈ 230
// minutes; medians: Medea ≈ 240, J-Kube ≈ +32%, YARN ≈ 2.1×).
func TFInstanceConfig() InstanceRuntimeConfig {
	return InstanceRuntimeConfig{
		Base: 230, CollocationCap: 4,
		ContentionPenalty: 0.22, RackPenalty: 0.11, ExternalPenalty: 0.17, Noise: 0.06,
	}
}

// HBaseInsertConfig calibrates Figure 7b (base ≈ 170 s).
func HBaseInsertConfig() InstanceRuntimeConfig {
	return InstanceRuntimeConfig{
		Base: 170, CollocationCap: 2,
		ContentionPenalty: 0.26, RackPenalty: 0.09, ExternalPenalty: 0.20, Noise: 0.06,
	}
}

// HBaseWorkloadAConfig calibrates Figure 7c (base ≈ 150 s).
func HBaseWorkloadAConfig() InstanceRuntimeConfig {
	return InstanceRuntimeConfig{
		Base: 150, CollocationCap: 2,
		ContentionPenalty: 0.24, RackPenalty: 0.08, ExternalPenalty: 0.19, Noise: 0.06,
	}
}

// InstanceRuntime evaluates the Figure-7 model for one placed instance.
func InstanceRuntime(cfg InstanceRuntimeConfig, f PlacementFeatures, rng *rand.Rand) float64 {
	slow := 1.0
	if over := f.MaxCollocated - cfg.CollocationCap; over > 0 {
		slow += cfg.ContentionPenalty * float64(over)
	}
	if f.RackSpan > 1 {
		slow += cfg.RackPenalty * float64(f.RackSpan-1)
	}
	if f.ExternalCollocated > 0 {
		slow += cfg.ExternalPenalty * float64(f.ExternalCollocated)
	}
	noise := 1 - cfg.Noise + 2*cfg.Noise*rng.Float64()
	return cfg.Base * slow * noise
}

// GridMixRuntime models one batch job's runtime in seconds: task work plus
// scheduler queueing delay. Placement constraints do not apply to tasks,
// so the only scheduler-dependent input is the queueing delay (Figure 7d:
// runtimes are consistently similar across schedulers).
func GridMixRuntime(taskSeconds, queueDelaySeconds float64, rng *rand.Rand) float64 {
	return (taskSeconds + queueDelaySeconds) * (0.95 + rng.Float64()*0.1)
}
