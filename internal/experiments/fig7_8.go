package experiments

import (
	"fmt"
	"time"

	"medea/internal/cluster"
	"medea/internal/failure"
	"medea/internal/lra"
	"medea/internal/metrics"
	"medea/internal/perfmodel"
	"medea/internal/resource"
	"medea/internal/sim"
	"medea/internal/taskched"
	"medea/internal/workload"
)

// Fig7Result carries the four sub-figures of Figure 7.
type Fig7Result struct {
	TensorFlow *metrics.Table // Fig 7a: runtime (min)
	HBaseIns   *metrics.Table // Fig 7b: insert runtime (s)
	HBaseA     *metrics.Table // Fig 7c: workload A runtime (s)
	GridMix    *metrics.Table // Fig 7d: batch runtime (s)
}

// Tables returns the sub-figure tables in order.
func (r Fig7Result) Tables() []*metrics.Table {
	return []*metrics.Table{r.TensorFlow, r.HBaseIns, r.HBaseA, r.GridMix}
}

// RunFig7 reproduces Figure 7: deploy 45 TensorFlow and 50 HBase instances
// plus GridMix filling 50% of memory on a 400-node cluster, with each
// scheduler, and report runtime box plots (p5/p25/median/p75/p99).
// Placement quality drives the runtime model: violated cardinality caps
// cost contention, broken rack affinity costs network, dropped instances
// are excluded (noted in the placed column).
func RunFig7(o Options) Fig7Result {
	o = o.withDefaults()
	nodes := o.scaled(400, 60)
	nTF := o.scaled(45, 6)
	nHB := o.scaled(50, 7)
	res := Fig7Result{
		TensorFlow: metrics.NewTable("Figure 7a: TensorFlow runtime (min)", "scheduler", "placed", "p5", "p25", "median", "p75", "p99"),
		HBaseIns:   metrics.NewTable("Figure 7b: HBase insert runtime (s)", "scheduler", "placed", "p5", "p25", "median", "p75", "p99"),
		HBaseA:     metrics.NewTable("Figure 7c: HBase workload A runtime (s)", "scheduler", "placed", "p5", "p25", "median", "p75", "p99"),
		GridMix:    metrics.NewTable("Figure 7d: GridMix runtime (s)", "scheduler", "jobs", "p5", "p25", "median", "p75", "p99"),
	}
	for _, alg := range performanceAlgorithms() {
		rng := sim.RNG(o.Seed, "fig7-"+alg.Name())
		// Figure 7 ran on the real 400-node cluster: dual quad-core Xeons
		// with HT (16 hardware threads) and 128 GB RAM (§7.1), so many
		// more containers fit per node than on the §7.4 simulated machines.
		c := cluster.Grid(nodes, 40, resource.New(131072, 32))
		preloadTasks(c, 0.5, o.Seed) // GridMix at 50% of memory (§7.2)
		var apps []*lra.Application
		tf := tfBatch(nTF, "tf7")
		// Figure 7 uses the §7.1 templates verbatim (cap 2 per node for
		// HBase workers): at this LRA density the workload remains
		// satisfiable, unlike the Figure-9 utilisation sweep.
		hb := make([]*lra.Application, nHB)
		for i := range hb {
			hb[i] = workload.HBase(fmt.Sprintf("hb7-%03d", i), workload.DefaultHBase())
		}
		for i := 0; i < nTF || i < nHB; i++ { // interleave arrivals
			if i < nTF {
				apps = append(apps, tf[i])
			}
			if i < nHB {
				apps = append(apps, hb[i])
			}
		}
		m, _ := deployInBatches(c, alg, apps, 2, o)

		var tfRuns, hbIns, hbA []float64
		placed := 0
		for _, app := range tf {
			ids, ok := m.Deployed(app.ID)
			if !ok {
				continue
			}
			placed++
			f := perfmodel.ExtractFeatures(m.Cluster, ids, workload.TagTFWorker)
			tfRuns = append(tfRuns, perfmodel.InstanceRuntime(perfmodel.TFInstanceConfig(), f, rng))
		}
		addBox(res.TensorFlow, alg.Name(), placed, tfRuns)
		placed = 0
		for _, app := range hb {
			ids, ok := m.Deployed(app.ID)
			if !ok {
				continue
			}
			placed++
			f := perfmodel.ExtractFeatures(m.Cluster, ids, workload.TagHBaseWorker)
			hbIns = append(hbIns, perfmodel.InstanceRuntime(perfmodel.HBaseInsertConfig(), f, rng))
			hbA = append(hbA, perfmodel.InstanceRuntime(perfmodel.HBaseWorkloadAConfig(), f, rng))
		}
		addBox(res.HBaseIns, alg.Name(), placed, hbIns)
		addBox(res.HBaseA, alg.Name(), placed, hbA)

		// Figure 7d: GridMix jobs submitted after the LRAs, allocated via
		// heartbeats; runtime = work + queueing delay.
		gm := workload.GridMix(sim.RNG(o.Seed, "fig7gm"), o.scaled(60, 12), workload.DefaultGridMix())
		ts := taskched.New(m.Cluster)
		now := sim.Epoch.Add(time.Hour)
		var gmRuns []float64
		for _, job := range gm {
			_ = ts.Submit(job.ID, "default", now, taskched.TaskRequest{
				Count: job.Req.Count, Demand: job.Req.Demand, Duration: job.Req.Duration,
			})
			// One heartbeat round per 500ms of virtual time until placed.
			rounds := 0
			for ts.Pending() > 0 && rounds < 40 {
				for n := 0; n < m.Cluster.NumNodes() && ts.Pending() > 0; n++ {
					allocs := ts.NodeHeartbeat(cluster.NodeID(n), now)
					for _, a := range allocs {
						gmRuns = append(gmRuns, perfmodel.GridMixRuntime(
							a.Duration.Seconds(), a.Latency.Seconds(), rng))
						// Free immediately: batch tasks are short-lived
						// relative to the experiment.
						_ = ts.ReleaseTask(a.Container, a.Queue, a.Demand)
					}
				}
				now = now.Add(500 * time.Millisecond)
				rounds++
			}
		}
		addBox(res.GridMix, alg.Name(), len(gmRuns), gmRuns)
	}
	return res
}

func addBox(tab *metrics.Table, name string, placed int, xs []float64) {
	if len(xs) == 0 {
		tab.AddRow(name, placed, "-", "-", "-", "-", "-")
		return
	}
	b := metrics.Box(xs)
	tab.AddRow(name, placed, b.P5, b.P25, b.Median, b.P75, b.P99)
}

// RunFig8 reproduces Figure 8: application resilience over 15 days. LRAs
// with 100 containers each are placed with an intra-application constraint
// spreading them across 25 service units, using Medea and J-Kube; a
// synthetic unavailability trace with the Figure-3 properties is replayed,
// and for each hour the worst per-LRA container unavailability is
// recorded. The table reports the CDF summary; Medea's placements respect
// the per-SU cap that J-Kube (no cardinality support) cannot.
func RunFig8(o Options) *metrics.Table {
	o = o.withDefaults()
	sus := 25
	nodes := o.scaled(500, sus*4)
	nodes = (nodes / sus) * sus // equal SU sizes
	containersPerLRA := o.scaled(100, 25)
	numLRAs := o.scaled(10, 4)
	hours := o.scaled(360, 96)
	tr := failure.Generate(sim.RNG(o.Seed, "fig8trace"), failure.Config{ServiceUnits: sus, Hours: hours})

	tab := metrics.NewTable("Figure 8: max container unavailability per LRA (%) over the trace",
		"scheduler", "p50", "p75", "p90", "p99", "max")
	for _, alg := range []lra.Algorithm{lra.NewILP(), lra.NewJKube()} {
		c := cluster.Grid(nodes, nodes/10, SimNodeCapacity)
		if err := failure.RegisterServiceUnits(c, sus); err != nil {
			panic(err) // unreachable: nodes is a multiple of sus
		}
		// Uneven background load: the realistic reason one-at-a-time
		// load-balancing clumps new containers into recently-emptied SUs.
		preloadTasks(c, 0.45, o.Seed)
		apps := make([]*lra.Application, numLRAs)
		for i := range apps {
			apps[i] = workload.ResilienceApp(fmt.Sprintf("res-%02d", i), containersPerLRA)
			// Scale the per-SU cap to the container count: perfect spread
			// plus one of slack.
			a, _ := apps[i].Constraints[0].Simple()
			a.Max = containersPerLRA/sus + 1
			apps[i].Constraints[0] = lraConstraint(a)
		}
		m, _ := deployInBatches(c, alg, apps, 2, o)
		placedContainers := map[string][]cluster.ContainerID{}
		for _, app := range apps {
			if ids, ok := m.Deployed(app.ID); ok {
				placedContainers[app.ID] = ids
			}
		}
		var worst []float64
		for h := 0; h < hours; h++ {
			per := tr.UnavailabilityPerLRA(m.Cluster, h, placedContainers)
			mx := 0.0
			for _, f := range per {
				if f > mx {
					mx = f
				}
			}
			worst = append(worst, mx*100)
		}
		tab.AddRow(alg.Name(),
			metrics.Percentile(worst, 50), metrics.Percentile(worst, 75),
			metrics.Percentile(worst, 90), metrics.Percentile(worst, 99),
			metrics.Percentile(worst, 100))
	}
	return tab
}
