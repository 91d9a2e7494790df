package lra_test

import (
	"fmt"
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/lra"
	"medea/internal/resource"
	"medea/internal/workload"
)

// templateApp is the benchmark's two_sched request mix: the §7.1
// TensorFlow and HBase templates and the §2.2 Storm+Memcached pipeline
// in equal thirds.
func templateApp(i int) *lra.Application {
	switch i % 3 {
	case 0:
		return workload.TensorFlow(fmt.Sprintf("tf-%05d", i), workload.DefaultTF())
	case 1:
		return workload.HBase(fmt.Sprintf("hb-%05d", i), workload.HBaseConfig{
			Workers: 10, MaxWorkersPerNode: 4, RackAffinity: true, MasterConstraints: true,
		})
	default:
		return workload.StormPipeline(fmt.Sprintf("st-%05d", i), 4, "intra-inter")
	}
}

// deployTemplates places templateApp(0..n-1) one at a time with alg,
// commits each to c and returns their constraints as active entries.
func deployTemplates(tb testing.TB, c *cluster.Cluster, alg lra.Algorithm, opts lra.Options, n int) []constraint.Entry {
	tb.Helper()
	var active []constraint.Entry
	for i := 0; i < n; i++ {
		app := templateApp(i)
		res := alg.Place(c, []*lra.Application{app}, active, opts)
		if res.PlacedApps() != 1 {
			tb.Fatalf("fixture: %s not placed", app.ID)
		}
		for _, a := range res.Placements[0].Assignments {
			if err := c.Allocate(a.Node, a.Container, a.Demand, a.Tags); err != nil {
				tb.Fatal(err)
			}
		}
		for _, con := range app.Constraints {
			active = append(active, constraint.Entry{AppID: app.ID, Source: constraint.SourceApplication, Constraint: con})
		}
	}
	return active
}

// twoSchedState builds the steady state of the two_sched workload: a
// 256-node grid in racks of 8 with 80 template LRAs deployed by Medea-NC
// and ~640 untagged task containers beside them. It returns the state,
// the deployed LRAs' constraints and the next batch (one HBase, one TF).
func twoSchedState(tb testing.TB) (*cluster.Cluster, []constraint.Entry, []*lra.Application) {
	tb.Helper()
	c := cluster.Grid(256, 8, resource.New(16384, 8))
	active := deployTemplates(tb, c, lra.NewNodeCandidates(), lra.Options{}, 80)
	for i, placed := 0, 0; placed < 640; i++ {
		// Strided over the grid, skipping nodes the LRAs filled.
		id := cluster.ContainerID(fmt.Sprintf("task-%d", placed))
		if c.Allocate(cluster.NodeID(i*7%256), id, resource.DefaultProfile, nil) == nil {
			placed++
		}
	}
	return c, active, []*lra.Application{templateApp(82), templateApp(81)}
}

func benchmarkGreedyPlace(b *testing.B, alg lra.Algorithm) {
	state, active, batch := twoSchedState(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := alg.Place(state, batch, active, lra.Options{}); res.PlacedApps() != len(batch) {
			b.Fatalf("placed %d of %d", res.PlacedApps(), len(batch))
		}
	}
}

func BenchmarkGreedyPlaceNC256(b *testing.B) { benchmarkGreedyPlace(b, lra.NewNodeCandidates()) }
func BenchmarkGreedyPlaceTP256(b *testing.B) { benchmarkGreedyPlace(b, lra.NewTagPopularity()) }

// BenchmarkILPPlaceSteady64 is one steady-state Place of the benchmark's
// ilp_steady workload: a 64-node grid in racks of 8 holding 26 template
// LRAs that Medea-ILP deployed one at a time, and a batch of one HBase
// and one TensorFlow under medea-server's 500 ms solver budget. The
// scheduler is built once, so its arenas and cross-cycle memory are warm
// the way they are mid-run.
func BenchmarkILPPlaceSteady64(b *testing.B) {
	c := cluster.Grid(64, 8, resource.New(16384, 8))
	opts := lra.Options{SolverBudget: 500 * time.Millisecond}
	alg := lra.NewILP()
	active := deployTemplates(b, c, alg, opts, 26)
	batch := []*lra.Application{templateApp(28), templateApp(27)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := alg.Place(c, batch, active, opts); res.PlacedApps() != len(batch) {
			b.Fatalf("placed %d of %d", res.PlacedApps(), len(batch))
		}
	}
}
