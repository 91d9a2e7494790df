package cluster_test

import (
	"fmt"
	"runtime"
	"testing"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/lra"
	"medea/internal/resource"
	"medea/internal/workload"
)

// twoSchedState builds a state the size and shape of the two_sched
// workload's: a 256-node grid in racks of 8 holding 80 template LRAs
// (TensorFlow, HBase, Storm+Memcached in thirds, every container group a
// distinct tag vector) and 640 untagged task containers.
func twoSchedState(tb testing.TB) *cluster.Cluster {
	tb.Helper()
	c := cluster.Grid(256, 8, resource.New(16384, 8))
	// Round-robin over the grid, skipping nodes that are full.
	next := 0
	place := func(id cluster.ContainerID, demand resource.Vector, tags []constraint.Tag) {
		for c.Allocate(cluster.NodeID(next%256), id, demand, tags) != nil {
			next++
		}
		next++
	}
	for i := 0; i < 80; i++ {
		var app *lra.Application
		switch i % 3 {
		case 0:
			app = workload.TensorFlow(fmt.Sprintf("tf-%05d", i), workload.DefaultTF())
		case 1:
			app = workload.HBase(fmt.Sprintf("hb-%05d", i), workload.DefaultHBase())
		default:
			app = workload.StormPipeline(fmt.Sprintf("st-%05d", i), 4, "intra-inter")
		}
		seq := 0
		for _, g := range app.Groups {
			for j := 0; j < g.Count; j++ {
				place(cluster.MakeContainerID(app.ID, seq), g.Demand, app.EffectiveTags(g))
				seq++
			}
		}
	}
	for i := 0; i < 640; i++ {
		place(cluster.ContainerID(fmt.Sprintf("task-%d", i)), resource.DefaultProfile, nil)
	}
	return c
}

var cloneSink *cluster.Cluster

func BenchmarkClusterClone256(b *testing.B) {
	c := twoSchedState(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cloneSink = c.Clone()
	}
}

// cloneMaxAllocs caps one Clone of twoSchedState, about 10% above the
// 882 allocations measured, the same at one P, at two and under -race
// (878 before the cluster counted its carried tags). Per node, Clone
// allocates the two slices of the tag multiset; the container map is
// copied whole, its records by value, and so is the per-tag count map. A resident slice
// per node and a heap record per container (1,134) fail here, as does a
// multiset held in maps (1,909).
const cloneMaxAllocs = 970

// TestClusterCloneAllocCap holds one Clone of the two_sched-sized state
// to cloneMaxAllocs. It counts the second of two clones, from
// runtime.MemStats.
func TestClusterCloneAllocCap(t *testing.T) {
	c := twoSchedState(t)
	cloneSink = c.Clone()
	var b, a runtime.MemStats
	runtime.ReadMemStats(&b)
	cloneSink = c.Clone()
	runtime.ReadMemStats(&a)
	allocs := a.Mallocs - b.Mallocs
	t.Logf("%d containers: %d allocs, %d kB", c.NumContainers(), allocs, (a.TotalAlloc-b.TotalAlloc)>>10)
	if allocs > cloneMaxAllocs {
		t.Errorf("Clone allocated %d times, cap %d", allocs, cloneMaxAllocs)
	}
}

// TestAllocateReleaseAllocCap: on the two_sched-sized state, allocating
// and releasing an untagged container allocates nothing, since its record
// is a map value and its node keeps a count, and a tagged one allocates
// once, for the copy of its tags. A container with the same tags stays
// resident on the node, so the tag multisets only count. The counts are
// averages over 200 pairs (testing.AllocsPerRun), so a map rehash that
// reclaims deleted slots now and then does not show.
func TestAllocateReleaseAllocCap(t *testing.T) {
	c := twoSchedState(t)
	free := cluster.NodeID(-1)
	for _, n := range c.Nodes() {
		if resource.DefaultProfile.Add(resource.DefaultProfile).Fits(n.Free()) {
			free = n.ID
			break
		}
	}
	if free < 0 {
		t.Fatal("no node has room for two more containers")
	}
	if err := c.Allocate(free, "resident#0", resource.DefaultProfile, []constraint.Tag{"hb", "app:probe"}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tags []constraint.Tag
		max  float64
	}{
		{"untagged", nil, 0},
		{"tagged", []constraint.Tag{"hb", "app:probe"}, 1},
	} {
		n := testing.AllocsPerRun(200, func() {
			if err := c.Allocate(free, "probe#0", resource.DefaultProfile, tc.tags); err != nil {
				t.Fatal(err)
			}
			if err := c.Release("probe#0"); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s Allocate and Release: %v allocs", tc.name, n)
		if n > tc.max {
			t.Errorf("%s Allocate and Release allocated %v times, cap %v", tc.name, n, tc.max)
		}
	}
}
