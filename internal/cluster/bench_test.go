package cluster_test

import (
	"fmt"
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
