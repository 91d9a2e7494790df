// Package experiments regenerates every table and figure of the paper's
// evaluation (§2 motivation figures and §7, Figures 1–3 and 7–11, Table
// 1). Each Run* function executes one experiment on the simulated
// substrate and returns printable tables whose rows mirror the paper's
// series; EXPERIMENTS.md records the paper-vs-measured comparison.
//
// Experiments default to a reduced Scale so the whole suite runs in
// seconds; Scale=1 reproduces the paper's full dimensions.
package experiments

import (
	"fmt"
	"time"

	"medea/internal/audit"
	"medea/internal/cluster"
	"medea/internal/core"
	"medea/internal/lra"
	"medea/internal/resource"
	"medea/internal/sim"
	"medea/internal/taskched"
	"medea/internal/workload"
)

// SimNodeCapacity is the simulated machine size of §7.4 (8 cores, 16 GB).
var SimNodeCapacity = resource.New(16384, 8)

// Options is shared experiment configuration.
type Options struct {
	// Seed drives all randomness; equal seeds give identical results.
	Seed int64
	// Scale in (0,1] shrinks cluster and workload dimensions
	// proportionally; 1 is paper scale. 0 selects the default 0.25.
	Scale float64
	// SolverBudget bounds each ILP solve (default 500ms).
	SolverBudget time.Duration
	// Audit selects the post-commit cluster-invariant checker mode for
	// every Medea instance the experiments build (default off; CI runs
	// the suite with fail-fast so a scheduler bug aborts the experiment
	// at the first corrupted cycle instead of skewing the tables).
	Audit audit.Mode
	// JournalDir, when non-empty, backs the crash-restart experiment's
	// journals with real files under this directory instead of memory.
	JournalDir string
	// CrashAt selects the durability operation the crash-restart
	// experiment kills the scheduler before (0 = a mid-run default).
	CrashAt int
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Scale == 0 {
		o.Scale = 0.25
	}
	if o.SolverBudget == 0 {
		o.SolverBudget = 500 * time.Millisecond
	}
	return o
}

// scaled returns max(lo, round(n*scale)).
func (o Options) scaled(n, lo int) int {
	v := int(float64(n)*o.Scale + 0.5)
	if v < lo {
		v = lo
	}
	return v
}

// comparedAlgorithms is the §7.1 scheduler line-up.
func comparedAlgorithms() []lra.Algorithm {
	return []lra.Algorithm{
		lra.NewILP(),
		lra.NewNodeCandidates(),
		lra.NewTagPopularity(),
		lra.NewJKube(),
		lra.NewSerial(),
	}
}

// performanceAlgorithms is the Figure-7 line-up.
func performanceAlgorithms() []lra.Algorithm {
	return []lra.Algorithm{
		lra.NewILP(),
		lra.NewJKube(),
		lra.NewJKubePlusPlus(),
		lra.NewYARN(),
	}
}

// deployInBatches submits apps to a fresh Medea instance over the cluster
// and runs scheduling cycles with `perCycle` LRAs considered per cycle
// (the paper's periodicity). It returns the Medea instance and, per
// placed LRA, the algorithm latency of the cycle that placed it.
func deployInBatches(c *cluster.Cluster, alg lra.Algorithm, apps []*lra.Application, perCycle int, o Options) (*core.Medea, []time.Duration) {
	m := core.New(c, alg, core.Config{SolverBudget: o.SolverBudget, MaxRetries: 1, Audit: o.Audit})
	var lat []time.Duration
	run := func(now time.Time) {
		stats := m.RunCycle(now)
		for range stats.Placed {
			lat = append(lat, stats.AlgLatency)
		}
	}
	now := sim.Epoch
	for i := 0; i < len(apps); i += perCycle {
		end := i + perCycle
		if end > len(apps) {
			end = len(apps)
		}
		for _, app := range apps[i:end] {
			if err := m.SubmitLRA(app, now); err != nil {
				panic(fmt.Sprintf("experiments: submit %s: %v", app.ID, err))
			}
		}
		run(now)
		now = now.Add(10 * time.Second)
	}
	// One drain cycle for requeued apps.
	if m.PendingLRAs() > 0 {
		run(now)
	}
	return m, lat
}

// preloadTasks fills approximately the given fraction of cluster memory
// with 1 GB task containers, spread unevenly (heartbeat order plus random
// node skew) to mimic a live shared cluster.
func preloadTasks(c *cluster.Cluster, frac float64, seed int64) *taskched.Scheduler {
	ts := taskched.New(c)
	if frac <= 0 {
		return ts
	}
	rng := sim.RNG(seed, "preload")
	// Per-node targets jittered ±20% around the requested fraction: the
	// cluster looks busy everywhere, but no two nodes are exactly equal,
	// as in a live shared cluster.
	for i := 0; i < c.NumNodes(); i++ {
		n := cluster.NodeID(i)
		nodeCap := c.Node(n).Capacity
		// One core per task with the node's own memory:core ratio, so
		// neither dimension saturates artificially early.
		perCoreMB := nodeCap.MemoryMB
		if nodeCap.VCores > 0 {
			perCoreMB = nodeCap.MemoryMB / nodeCap.VCores
		}
		demand := resource.New(perCoreMB, 1)
		target := int(float64(nodeCap.MemoryMB) / float64(demand.MemoryMB) * frac * (0.8 + 0.4*rng.Float64()))
		if target <= 0 {
			continue
		}
		_ = ts.Submit("preload", "default", sim.Epoch, taskched.TaskRequest{
			Count: target, Demand: demand, Duration: time.Hour,
		})
		for len(ts.NodeHeartbeat(n, sim.Epoch)) > 0 && ts.Pending() > 0 {
		}
		// Drop whatever did not fit on this node.
		for ts.Pending() > 0 {
			if len(ts.NodeHeartbeat(n, sim.Epoch)) == 0 {
				break
			}
		}
	}
	return ts
}

// violationPct evaluates active constraints on the cluster and returns
// the percentage of subject containers violating at least one.
func violationPct(m *core.Medea) float64 {
	rep := lra.Evaluate(m.Cluster, m.ActiveEntries())
	return rep.ViolationFraction() * 100
}

// hbaseBatch builds n HBase instances with the §7.1 constraint templates,
// with one adaptation: the per-node worker cap is 6 rather than 2. With
// 2 GB workers on 16 GB simulated nodes, a cap of 2 bounds LRA memory at
// 25% of the cluster, which contradicts the paper's 10–90% utilisation
// sweep; a cap of 7 keeps the workload satisfiable across the sweep while
// preserving the constraint structure (see EXPERIMENTS.md).
func hbaseBatch(n int, prefix string) []*lra.Application {
	cfg := workload.HBaseConfig{Workers: 10, MaxWorkersPerNode: 7, RackAffinity: true, MasterConstraints: true}
	apps := make([]*lra.Application, n)
	for i := range apps {
		apps[i] = workload.HBase(fmt.Sprintf("%s-%03d", prefix, i), cfg)
	}
	return apps
}

// tfBatch builds n §7.1-template TensorFlow instances.
func tfBatch(n int, prefix string) []*lra.Application {
	apps := make([]*lra.Application, n)
	for i := range apps {
		apps[i] = workload.TensorFlow(fmt.Sprintf("%s-%03d", prefix, i), workload.DefaultTF())
	}
	return apps
}

// lraMemoryMB returns the memory footprint of a set of applications.
func lraMemoryMB(apps []*lra.Application) int64 {
	var total int64
	for _, a := range apps {
		for _, g := range a.Groups {
			total += g.Demand.MemoryMB * int64(g.Count)
		}
	}
	return total
}

// appsForUtilization returns enough HBase instances to fill roughly the
// given fraction of the cluster's memory.
func appsForUtilization(c *cluster.Cluster, frac float64, prefix string) []*lra.Application {
	perApp := lraMemoryMB(hbaseBatch(1, "probe"))
	want := int64(float64(c.TotalCapacity().MemoryMB) * frac)
	n := int(want / perApp)
	if n < 1 {
		n = 1
	}
	return hbaseBatch(n, prefix)
}
