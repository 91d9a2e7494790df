// mixed-cluster: the two-scheduler design end to end. LRAs and task-based
// jobs share a cluster; the discrete-event simulator drives arrivals, node
// heartbeats and completions, and the program reports both LRA placement
// quality and task scheduling latency — showing the LRA scheduler does not
// slow the task path (§3, §7.5).
package main

import (
	"fmt"
	"time"

	"medea"
	"medea/internal/cluster"
	"medea/internal/metrics"
	"medea/internal/sim"
	"medea/internal/workload"
)

func main() {
	c := medea.NewCluster(120, 12, medea.Resource(16384, 8))
	m := medea.New(c, medea.ILP(), medea.Config{Interval: 5 * time.Second},
		medea.QueueConfig{Name: "prod", Capacity: 0.5},
		medea.QueueConfig{Name: "batch", Capacity: 0.5},
	)
	eng := sim.NewEngine(time.Time{})

	// Node heartbeats every 500 ms; completed tasks release.
	var latencies []time.Duration // of every task allocation
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
		return eng.Pending() > 0
	})
	// LRA scheduling cycles.
	eng.Every(sim.Epoch, 5*time.Second, func(now time.Time) bool {
		m.Tick(now)
		return eng.Pending() > 0
	})

	// Ten LRAs arrive over the first two minutes.
	for i := 0; i < 10; i++ {
		app := workload.TensorFlow(fmt.Sprintf("tf-%02d", i), workload.DefaultTF())
		at := sim.Epoch.Add(time.Duration(i) * 12 * time.Second)
		eng.At(at, func(now time.Time) {
			if err := m.SubmitLRA(app, now); err != nil {
				panic(err)
			}
		})
	}
	// Batch jobs arrive throughout.
	jobs := workload.GridMix(sim.RNG(3, "mixed"), 60, workload.DefaultGridMix())
	for i, job := range jobs {
		job := job
		at := sim.Epoch.Add(time.Duration(i) * 3 * time.Second)
		eng.At(at, func(now time.Time) {
			_ = m.SubmitTasks(job.ID, "batch", now, job.Req)
		})
	}

	eng.RunUntil(sim.Epoch.Add(10 * time.Minute))

	placed := 0
	for i := 0; i < 10; i++ {
		if _, ok := m.Deployed(fmt.Sprintf("tf-%02d", i)); ok {
			placed++
		}
	}
	rep := medea.Evaluate(c, m)
	lat := metrics.Durations(latencies)
	for i := range lat {
		lat[i] *= 1000
	}
	fmt.Printf("simulated %d events over %s virtual time\n", eng.Processed, "10m")
	fmt.Printf("LRAs placed: %d/10, constraint violations: %d/%d containers\n",
		placed, rep.ViolatedContainers, rep.SubjectContainers)
	fmt.Printf("task containers allocated: %d\n", len(lat))
	fmt.Printf("task scheduling latency: p50=%.0fms p99=%.0fms\n",
		metrics.Percentile(lat, 50), metrics.Percentile(lat, 99))
	fmt.Printf("cluster memory utilization: %.0f%%\n", 100*c.MemoryUtilization())
}
