package experiments

import (
	"fmt"
	"time"

	"medea/internal/cluster"
	"medea/internal/core"
	"medea/internal/lra"
	"medea/internal/metrics"
	"medea/internal/resource"
	"medea/internal/sim"
	"medea/internal/taskched"
	"medea/internal/workload"
)

// RunFig11a reproduces Figure 11a: average LRA scheduling latency as the
// cluster grows from 50 to 5000 machines, with LRAs consuming 20% of
// cluster resources. Latency is the wall-clock time each algorithm spends
// deciding a batch, averaged per LRA.
func RunFig11a(o Options) *metrics.Table {
	o = o.withDefaults()
	algs := []lra.Algorithm{lra.NewILP(), lra.NewNodeCandidates(), lra.NewTagPopularity(), lra.NewJKube()}
	hdr := []string{"nodes"}
	for _, a := range algs {
		hdr = append(hdr, a.Name())
	}
	tab := metrics.NewTable("Figure 11a: LRA scheduling latency vs cluster size (ms)", hdr...)
	sizes := []int{50, 250, 1000, 2500, 5000}
	if o.Scale < 1 {
		sizes = []int{50, 150, 500, 1000}
	}
	for _, n := range sizes {
		row := []any{n}
		for _, alg := range algs {
			c := cluster.Grid(n, max(n/10, 5), SimNodeCapacity)
			apps := appsForUtilization(c, 0.20, fmt.Sprintf("f11a%d", n))
			// Cap the batch count so huge clusters don't take minutes.
			if len(apps) > 24 {
				apps = apps[:24]
			}
			_, perLRA := deployInBatches(c, alg, apps, 2, o)
			lat := metrics.Durations(perLRA)
			if len(lat) == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, 1000*metrics.Mean(lat))
		}
		tab.AddRow(row...)
	}
	return tab
}

// RunFig11b reproduces Figure 11b: the two-scheduler benefit. On a fully
// utilised 256-machine cluster, the fraction of resources used by LRAs
// (services) sweeps 0→100%; Medea schedules tasks through the task-based
// scheduler while ILP-ALL pushes everything through the solver (see
// submitTaskJob). The total LRA scheduling latency degrades sharply for
// ILP-ALL.
func RunFig11b(o Options) *metrics.Table {
	o = o.withDefaults()
	// This experiment measures the schedulers' *inherent* latency, so the
	// per-solve budget must not bind at the MEDEA operating point: with
	// the end-to-end deadline now enforced to pivot granularity, the
	// default tight budget would clamp every ILP-ALL solve to the same
	// ceiling MEDEA's solves never reach and erase the very contrast the
	// figure reports. 3s leaves ILP-ALL room to be visibly slower while
	// still bounding each solve.
	if o.SolverBudget < 3*time.Second {
		o.SolverBudget = 3 * time.Second
	}
	nodes := o.scaled(256, 64)
	tab := metrics.NewTable("Figure 11b: total LRA scheduling latency (s)",
		"services_pct", "MEDEA", "ILP-ALL")
	for _, frac := range []float64{0.2, 0.4, 0.6, 0.8, 1.0} {
		row := []any{fmt.Sprintf("%.0f%%", frac*100)}
		for _, ilpAll := range []bool{false, true} {
			c := cluster.Grid(nodes, nodes/8, SimNodeCapacity)
			m := core.New(c, lra.NewILP(), core.Config{
				SolverBudget: o.SolverBudget,
				MaxRetries:   1,
				Audit:        o.Audit,
			})
			now := sim.Epoch
			taskSeq := 0
			apps := appsForUtilization(c, 0.5*frac, fmt.Sprintf("f11b%.0f%v", frac*100, ilpAll))
			// Task jobs fill the rest of the cluster to full utilisation.
			taskMB := float64(c.TotalCapacity().MemoryMB) * (1 - 0.5*frac)
			taskCount := int(taskMB / 1024)
			total := 0.0
			for i := 0; i < len(apps); i += 2 {
				end := min(i+2, len(apps))
				for _, a := range apps[i:end] {
					if err := m.SubmitLRA(a, now); err != nil {
						panic(err) // unreachable: generated apps are valid
					}
				}
				// A slice of the task load arrives alongside each batch.
				per := taskCount / max(len(apps)/2, 1)
				if per > 0 {
					_ = submitTaskJob(m, ilpAll, &taskSeq, fmt.Sprintf("job%d", i), per, now)
				}
				stats := m.RunCycle(now)
				total += stats.AlgLatency.Seconds()
				now = now.Add(10 * time.Second)
			}
			row = append(row, total)
		}
		tab.AddRow(row...)
	}
	return tab
}

// submitTaskJob submits one job of per tasks for Figure 11b. MEDEA hands
// it to the task-based scheduler. ILP-ALL, §7.5's strawman, wraps it as a
// constraint-free single-group LRA named "<job>-task<n>" so it competes
// inside the LRA scheduler; seq counts the run's task LRAs.
func submitTaskJob(m *core.Medea, ilpAll bool, seq *int, job string, per int, now time.Time) error {
	if !ilpAll {
		return m.SubmitTasks(job, "default", now, taskched.TaskRequest{Count: per, Demand: taskDemand()})
	}
	*seq++
	return m.SubmitLRA(&lra.Application{
		ID:     fmt.Sprintf("%s-task%d", job, *seq),
		Groups: []lra.ContainerGroup{{Name: "task", Count: per, Demand: taskDemand()}},
	}, now)
}

// RunFig11c reproduces Figure 11c: task scheduling latency under the
// Google-trace-like replay at 200× speedup, comparing plain YARN (task
// scheduler only) with Medea carrying an extra 10% LRA scheduling load.
// The discrete-event simulator drives arrivals, heartbeats and task
// completions; the reported latency is submission→allocation.
func RunFig11c(o Options) *metrics.Table {
	o = o.withDefaults()
	nodes := o.scaled(256, 64)
	cfg := workload.DefaultGoogleTrace()
	cfg.Jobs = o.scaled(cfg.Jobs, 80)
	tab := metrics.NewTable("Figure 11c: task scheduling latency (ms)",
		"scheduler", "tasks", "p25", "median", "p75", "p99")

	for _, withLRAs := range []bool{true, false} {
		name := "YARN"
		if withLRAs {
			name = "MEDEA (short tasks)"
		}
		c := cluster.Grid(nodes, nodes/8, SimNodeCapacity)
		m := core.New(c, lra.NewILP(), core.Config{SolverBudget: o.SolverBudget, Interval: 5 * time.Second, Audit: o.Audit})
		eng := sim.NewEngine(time.Time{})
		trace := workload.GoogleTrace(sim.RNG(o.Seed, "fig11c"), cfg)
		var latencies []time.Duration // of every task allocation

		// Node heartbeats: one round every 500 ms (YARN's default 1s
		// halved by node staggering), allocating queued tasks.
		eng.Every(sim.Epoch, 500*time.Millisecond, func(now time.Time) bool {
			for n := 0; n < c.NumNodes(); n++ {
				for _, a := range m.Tasks.NodeHeartbeat(cluster.NodeID(n), now) {
					latencies = append(latencies, a.Latency)
					alloc := a
					eng.After(alloc.Duration, func(time.Time) {
						_ = m.Tasks.ReleaseTask(alloc.Container, alloc.Queue, alloc.Demand)
					})
				}
			}
			return eng.Pending() > 0 || m.Tasks.Pending() > 0
		})
		// Task arrivals from the trace.
		for _, tt := range trace {
			tt := tt
			eng.At(sim.Epoch.Add(tt.Arrival), func(now time.Time) {
				_ = m.Tasks.Submit(tt.Job, "default", now, tt.Req)
			})
		}
		if withLRAs {
			// An extra ~10% scheduling load from LRAs, arriving steadily.
			apps := appsForUtilization(c, 0.10, "f11c")
			gap := trace[len(trace)-1].Arrival / time.Duration(len(apps)+1)
			for i, app := range apps {
				app := app
				eng.At(sim.Epoch.Add(time.Duration(i+1)*gap), func(now time.Time) {
					_ = m.SubmitLRA(app, now)
				})
			}
			eng.Every(sim.Epoch, 5*time.Second, func(now time.Time) bool {
				m.Tick(now)
				return eng.Pending() > 0
			})
		}
		eng.Run(2_000_000)
		lat := metrics.Durations(latencies)
		for i := range lat {
			lat[i] *= 1000 // ms
		}
		tab.AddRow(name, len(lat),
			metrics.Percentile(lat, 25), metrics.Percentile(lat, 50),
			metrics.Percentile(lat, 75), metrics.Percentile(lat, 99))
	}
	return tab
}

func taskDemand() resource.Vector { return resource.DefaultProfile }
