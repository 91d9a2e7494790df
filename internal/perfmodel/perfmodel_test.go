package perfmodel

import (
	"testing"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/metrics"
	"medea/internal/resource"
	"medea/internal/sim"
)

func TestDistance(t *testing.T) {
	c := cluster.Grid(8, 4, resource.New(8192, 8))
	if got := Distance(c, 0, 0); got != 0 {
		t.Errorf("same node = %d", got)
	}
	if got := Distance(c, 0, 3); got != 1 {
		t.Errorf("same rack = %d", got)
	}
	if got := Distance(c, 0, 5); got != 2 {
		t.Errorf("cross rack = %d", got)
	}
}

// TestMemcachedLatencyShape checks the Figure-2a ordering: local lookups
// are ~4.6× faster than remote ones on average.
func TestMemcachedLatencyShape(t *testing.T) {
	rng := sim.RNG(1, "mc")
	sample := func(d int) float64 {
		xs := make([]float64, 3000)
		for i := range xs {
			xs[i] = MemcachedLatency(d, rng)
		}
		return metrics.Mean(xs)
	}
	local, rack, cross := sample(0), sample(1), sample(2)
	if !(local < rack && rack < cross) {
		t.Fatalf("ordering broken: %v %v %v", local, rack, cross)
	}
	ratio := rack / local
	if ratio < 3.5 || ratio > 6.5 {
		t.Errorf("remote/local mean ratio = %.2f, want ≈4.6", ratio)
	}
}

// TestYCSBAntiAffinityGap reproduces Figure 2b's bands: no-constraints ≈
// 34% below anti-affinity; cgroups close part of the gap but not all.
func TestYCSBAntiAffinityGap(t *testing.T) {
	rng := sim.RNG(3, "ycsb")
	for _, w := range []byte{'A', 'B', 'C', 'D', 'E', 'F'} {
		iso := YCSBThroughput(w, 0, false, rng)
		packed := YCSBThroughput(w, 1.0, false, rng)
		packedCG := YCSBThroughput(w, 1.0, true, rng)
		if !(packed < packedCG && packedCG < iso) {
			t.Errorf("workload %c ordering: packed=%v cgroups=%v iso=%v", w, packed, packedCG, iso)
		}
		gap := (iso - packed) / iso
		if gap < 0.2 || gap > 0.45 {
			t.Errorf("workload %c anti-affinity gap = %.2f, want ≈0.34", w, gap)
		}
	}
	// Unknown workload falls back to a sane base.
	if got := YCSBThroughput('Z', 0, false, rng); got <= 0 {
		t.Errorf("unknown workload throughput = %v", got)
	}
}

// TestTFCardinalityOptima: Figure 2d's optima — 4 workers/node lightly
// loaded, 16 heavily loaded; 42% reduction vs affinity and 34% vs
// anti-affinity at the high-load optimum.
func TestTFCardinalityOptima(t *testing.T) {
	avg := func(k int, high bool) float64 {
		rng := sim.RNG(5, "tf")
		xs := make([]float64, 500)
		for i := range xs {
			xs[i] = TFRuntime(k, high, rng)
		}
		return metrics.Mean(xs)
	}
	ks := []int{1, 4, 8, 16, 32}
	bestLow, bestHigh := 0, 0
	for _, k := range ks {
		if avg(k, false) < avg(bestLow, false) || bestLow == 0 {
			if bestLow == 0 || avg(k, false) < avg(bestLow, false) {
				bestLow = k
			}
		}
		if bestHigh == 0 || avg(k, true) < avg(bestHigh, true) {
			bestHigh = k
		}
	}
	if bestLow != 4 {
		t.Errorf("low-load optimum = %d, want 4", bestLow)
	}
	if bestHigh != 16 {
		t.Errorf("high-load optimum = %d, want 16", bestHigh)
	}
	redVsAff := 1 - avg(16, true)/avg(32, true)
	redVsAnti := 1 - avg(16, true)/avg(1, true)
	if redVsAff < 0.3 || redVsAff > 0.55 {
		t.Errorf("reduction vs affinity = %.2f, want ≈0.42", redVsAff)
	}
	if redVsAnti < 0.25 || redVsAnti > 0.45 {
		t.Errorf("reduction vs anti-affinity = %.2f, want ≈0.34", redVsAnti)
	}
}

func TestHBaseCardinalityOptima(t *testing.T) {
	avg := func(k int, high bool) float64 {
		rng := sim.RNG(6, "hb")
		xs := make([]float64, 500)
		for i := range xs {
			xs[i] = HBaseRuntime(k, high, rng)
		}
		return metrics.Mean(xs)
	}
	bestLow, bestHigh := 1, 1
	for _, k := range []int{1, 2, 4, 8, 10} {
		if avg(k, false) < avg(bestLow, false) {
			bestLow = k
		}
		if avg(k, true) < avg(bestHigh, true) {
			bestHigh = k
		}
	}
	if bestLow != 2 || bestHigh != 4 {
		t.Errorf("optima = low %d / high %d, want 2 / 4", bestLow, bestHigh)
	}
}

func TestExtractFeatures(t *testing.T) {
	c := cluster.Grid(8, 4, resource.New(16384, 16))
	tag := constraint.Tag("tf_w")
	var ids []cluster.ContainerID
	// 3 workers on node 0, 1 on node 5 (other rack).
	for i, node := range []cluster.NodeID{0, 0, 0, 5} {
		id := cluster.MakeContainerID("a", i)
		if err := c.Allocate(node, id, resource.New(1024, 1), []constraint.Tag{tag}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// A foreign same-type worker on node 0.
	if err := c.Allocate(0, "b#0", resource.New(1024, 1), []constraint.Tag{tag}); err != nil {
		t.Fatal(err)
	}
	// A non-worker container that must be ignored.
	if err := c.Allocate(0, "a#99", resource.New(1024, 1), []constraint.Tag{"tf_ps"}); err != nil {
		t.Fatal(err)
	}
	ids = append(ids, "a#99")
	f := ExtractFeatures(c, ids, tag)
	if f.MaxCollocated != 3 {
		t.Errorf("MaxCollocated = %d, want 3", f.MaxCollocated)
	}
	if f.RackSpan != 2 {
		t.Errorf("RackSpan = %d, want 2", f.RackSpan)
	}
	if f.ExternalCollocated != 1 {
		t.Errorf("ExternalCollocated = %d, want 1", f.ExternalCollocated)
	}
}

// TestInstanceRuntimeOrdering: worse placements run longer.
func TestInstanceRuntimeOrdering(t *testing.T) {
	cfg := TFInstanceConfig()
	mean := func(f PlacementFeatures) float64 {
		rng := sim.RNG(7, "inst")
		xs := make([]float64, 400)
		for i := range xs {
			xs[i] = InstanceRuntime(cfg, f, rng)
		}
		return metrics.Mean(xs)
	}
	ideal := mean(PlacementFeatures{MaxCollocated: 4, RackSpan: 1})
	contended := mean(PlacementFeatures{MaxCollocated: 8, RackSpan: 1})
	spread := mean(PlacementFeatures{MaxCollocated: 4, RackSpan: 3})
	external := mean(PlacementFeatures{MaxCollocated: 4, RackSpan: 1, ExternalCollocated: 4})
	if !(ideal < contended && ideal < spread && ideal < external) {
		t.Errorf("ordering: ideal=%v contended=%v spread=%v external=%v", ideal, contended, spread, external)
	}
}

func TestGridMixRuntime(t *testing.T) {
	rng := sim.RNG(8, "gm")
	r := GridMixRuntime(60, 2, rng)
	if r < 50 || r > 75 {
		t.Errorf("runtime = %v", r)
	}
}
