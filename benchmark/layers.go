package main

import (
	"fmt"
	"time"

	"medea/internal/ilp"
)

// perLayer lists the metrics of the traced run. A metric of a layer the
// workload does not use is reported as 0.
var perLayer = []metricDef{
	{name: "core.cycle_p50_ms", unit: "ms", better: "lower"},
	{name: "core.cycle_p90_ms", unit: "ms", better: "lower"},
	{name: "core.cycle_self_p50_ms", unit: "ms", better: "lower"},
	{name: "core.busy_pct", unit: "%", better: "lower"},
	{name: "core.cycles", unit: "count", better: "lower"},
	{name: "core.batch_mean", unit: "count", better: "higher"},
	{name: "core.requeued", unit: "count", better: "lower"},
	{name: "core.submit_p50_us", unit: "us", better: "lower"},
	{name: "core.remove_p50_us", unit: "us", better: "lower"},
	{name: "core.invariants_p50_ms", unit: "ms", better: "lower"},

	{name: "lra.place_p50_ms", unit: "ms", better: "lower"},
	{name: "lra.place_p90_ms", unit: "ms", better: "lower"},
	{name: "lra.busy_pct", unit: "%", better: "lower"},
	{name: "lra.deadline_hit_pct", unit: "%", better: "lower"},
	{name: "lra.exact_solves", unit: "count", better: "lower"},
	{name: "lra.approx_solves", unit: "count", better: "lower"},
	{name: "lra.warm_starts", unit: "count", better: "higher"},
	{name: "lra.evaluate_p50_ms", unit: "ms", better: "lower"},
	{name: "lra.violating_containers", unit: "count", better: "lower"},

	{name: "ilp.fixture_exact_ms", unit: "ms", better: "lower"},
	{name: "ilp.fixture_warm_ms", unit: "ms", better: "lower"},
	{name: "ilp.fixture_approx_ms", unit: "ms", better: "lower"},

	{name: "cluster.clone_p50_us", unit: "us", better: "lower"},
	{name: "cluster.containers", unit: "count", better: "higher"},
	{name: "constraint.active_p50_us", unit: "us", better: "lower"},

	{name: "taskched.round_p50_ms", unit: "ms", better: "lower"},
	{name: "taskched.heartbeat_p50_us", unit: "us", better: "lower"},
	{name: "taskched.task_p50_ms", unit: "ms", better: "lower"},
	{name: "taskched.task_p90_ms", unit: "ms", better: "lower"},
	{name: "taskched.tasks_allocated", unit: "count", better: "higher"},
	{name: "taskched.busy_pct", unit: "%", better: "lower"},

	{name: "journal.append_p50_us", unit: "us", better: "lower"},
	{name: "journal.appends_per_lra", unit: "1", better: "lower"},
	{name: "journal.bytes_per_lra", unit: "B", better: "lower"},
	{name: "journal.fsyncs_per_lra", unit: "1", better: "lower"},
	{name: "journal.checkpoint_p50_ms", unit: "ms", better: "lower"},
	{name: "journal.checkpoints", unit: "count", better: "lower"},
	{name: "journal.busy_pct", unit: "%", better: "lower"},
	{name: "journal.load_p50_ms", unit: "ms", better: "lower"},
	{name: "journal.recover_p50_ms", unit: "ms", better: "lower"},
	{name: "journal.tail_records", unit: "count", better: "lower"},

	{name: "server.accept_p50_ms", unit: "ms", better: "lower"},
	{name: "server.submit_p50_us", unit: "us", better: "lower"},
	{name: "server.status_p50_us", unit: "us", better: "lower"},
	{name: "server.remove_p50_us", unit: "us", better: "lower"},
	{name: "server.step_p50_ms", unit: "ms", better: "lower"},
	{name: "server.step_self_p50_ms", unit: "ms", better: "lower"},
	{name: "server.http_overhead_p50_us", unit: "us", better: "lower"},
	{name: "server.busy_pct", unit: "%", better: "lower"},
	{name: "server.refused", unit: "count", better: "lower"},

	{name: "federation.submit_p50_ms", unit: "ms", better: "lower"},
	{name: "federation.status_p50_ms", unit: "ms", better: "lower"},
	{name: "federation.remove_p50_ms", unit: "ms", better: "lower"},
	{name: "federation.balancer_step_p50_ms", unit: "ms", better: "lower"},
	{name: "federation.spillovers", unit: "count", better: "lower"},
	{name: "federation.attempts_per_submit", unit: "1", better: "lower"},
	{name: "federation.busy_pct", unit: "%", better: "lower"},

	{name: "proc.cpu_ms_per_lra", unit: "ms", better: "lower"},
	{name: "proc.allocs_per_lra", unit: "count", better: "lower"},
	{name: "proc.gc_cycles", unit: "count", better: "lower"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "host.slowdown", unit: "1", better: "lower"},
}

// layerMetrics fills the per-layer metrics: process counters from the
// untraced reference run (e, m), everything else from the traced run
// (te, tm) and, for svc_durable, the journal recoveries.
func layerMetrics(out map[string]metricValue, e *env, m *measured, te *env, tm *measured, rcv *recovery) {
	vals := make(map[string]float64, len(perLayer))
	rec, ph := te.rec, &te.l.ph
	lras := float64(max(ph.deployed, 1))
	wall := ph.wall()
	busy := func(layer string) float64 { return 100 * float64(rec.layerBusy(layer)) / float64(wall) }
	p := func(ds []time.Duration, q float64, conv func([]time.Duration) []float64) float64 {
		return percentile(conv(ds), q)
	}

	switch t := te.t.(type) {
	case *coreTarget:
		coreMetrics(vals, t, rec)
		vals["ilp.fixture_exact_ms"], vals["ilp.fixture_warm_ms"], vals["ilp.fixture_approx_ms"] = ilpFixture()
	case *schedTarget:
		coreMetrics(vals, t.coreTarget, rec)
		vals["taskched.round_p50_ms"] = p(rec.selfOf("taskched.round"), 50, msAll)
		vals["taskched.heartbeat_p50_us"] = p(t.heartbeats, 50, usAll)
		vals["taskched.task_p50_ms"] = p(t.taskLat, 50, msAll)
		vals["taskched.task_p90_ms"] = p(t.taskLat, 90, msAll)
		vals["taskched.tasks_allocated"] = float64(t.allocated)
		vals["taskched.busy_pct"] = busy("taskched")
	case *svcTarget:
		vals["server.accept_p50_ms"] = p(rec.durations("http.POST"), 50, msAll)
		vals["server.submit_p50_us"] = p(rec.durations("server.submit"), 50, usAll)
		vals["server.status_p50_us"] = p(rec.durations("server.status"), 50, usAll)
		vals["server.remove_p50_us"] = p(rec.durations("server.remove"), 50, usAll)
		var overhead []time.Duration
		for _, method := range []string{"POST", "GET", "DELETE"} {
			overhead = append(overhead, rec.selfOf("http."+method)...)
		}
		vals["server.http_overhead_p50_us"] = p(overhead, 50, usAll)
		vals["server.refused"] = float64(t.refused)
		vals["journal.bytes_per_lra"] = float64(t.tj.bytes) / lras
		vals["journal.fsyncs_per_lra"] = float64(t.counts()["fsyncs"]) / lras
		journalMetrics(vals, []*tracedJournal{t.tj}, lras)
		if rcv != nil {
			vals["journal.load_p50_ms"] = p(rcv.load, 50, msAll)
			vals["journal.recover_p50_ms"] = p(rcv.recover, 50, msAll)
			vals["journal.tail_records"] = float64(rcv.tail)
		}
	case *fedTarget:
		vals["federation.submit_p50_ms"] = p(rec.durations("federation.submit"), 50, msAll)
		vals["federation.status_p50_ms"] = p(rec.durations("federation.status"), 50, msAll)
		vals["federation.remove_p50_ms"] = p(rec.durations("federation.remove"), 50, msAll)
		vals["federation.balancer_step_p50_ms"] = p(rec.durations("federation.balancer_step"), 50, msAll)
		c := t.counts()
		vals["federation.spillovers"] = float64(c["spillovers"])
		vals["federation.attempts_per_submit"] = float64(c["routed"]+c["spillovers"]) / float64(max(c["routed"], 1))
		vals["federation.busy_pct"] = busy("federation")
		journalMetrics(vals, t.tjs, lras)
	}
	vals["server.step_p50_ms"] = p(rec.durations("server.step"), 50, msAll)
	vals["server.step_self_p50_ms"] = p(rec.selfOf("server.step"), 50, msAll)
	vals["server.busy_pct"] = busy("server")
	vals["journal.append_p50_us"] = p(rec.durations("journal.append"), 50, usAll)
	vals["journal.checkpoint_p50_ms"] = p(rec.durations("journal.checkpoint"), 50, msAll)
	vals["journal.busy_pct"] = busy("journal")
	vals["core.busy_pct"] = busy("core")
	vals["lra.place_p50_ms"] = p(rec.durations("lra.place"), 50, msAll)
	vals["lra.place_p90_ms"] = p(rec.durations("lra.place"), 90, msAll)
	vals["lra.busy_pct"] = busy("lra")
	pc := tm.pipeline
	vals["lra.exact_solves"] = float64(pc.exact)
	vals["lra.approx_solves"] = float64(pc.approx)
	vals["lra.warm_starts"] = float64(pc.warm)
	if n := len(rec.durations("lra.place")); n > 0 {
		vals["lra.deadline_hit_pct"] = 100 * float64(pc.deadlineHits) / float64(n)
	}
	vals["lra.evaluate_p50_ms"] = p(tm.probes.evaluate, 50, msAll)
	vals["lra.violating_containers"] = float64(tm.violating)
	vals["core.invariants_p50_ms"] = p(tm.probes.invariants, 50, msAll)
	vals["cluster.clone_p50_us"] = p(tm.probes.clone, 50, usAll)
	vals["cluster.containers"] = float64(tm.probes.containers)
	vals["constraint.active_p50_us"] = p(tm.probes.active, 50, usAll)

	ref := float64(max(e.l.ph.deployed, 1))
	vals["proc.cpu_ms_per_lra"] = ms(m.cpu) / ref
	vals["proc.allocs_per_lra"] = float64(m.mallocs) / ref
	vals["proc.gc_cycles"] = float64(m.gcCycles)
	vals["proc.gc_pause_ms"] = ms(m.gcPause)
	// The same operations ran in both runs; compare their throughput over
	// each run's calm blocks, each at the host's reference speed. The
	// other timings here are as measured: host.slowdown is the factor
	// the traced run's were slowed by.
	calmRef, calmTraced := calmBlocks(e.l.ph.blocks), calmBlocks(ph.blocks)
	slowRef, slowTraced := slowdown(blockRefs(calmRef)), slowdown(blockRefs(calmTraced))
	vals["trace.overhead_pct"] = 100 * (median(blockRates(calmRef))*slowRef/(median(blockRates(calmTraced))*slowTraced) - 1)
	vals["host.slowdown"] = slowTraced

	for _, d := range perLayer {
		out[d.name] = metricValue{vals[d.name], d.unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			panic(fmt.Sprintf("benchmark: per-layer metric %q is not declared", name))
		}
	}
}

func coreMetrics(vals map[string]float64, t *coreTarget, rec *recorder) {
	vals["core.cycle_p50_ms"] = percentile(msAll(rec.durations("core.cycle")), 50)
	vals["core.cycle_p90_ms"] = percentile(msAll(rec.durations("core.cycle")), 90)
	vals["core.cycle_self_p50_ms"] = percentile(msAll(rec.selfOf("core.cycle")), 50)
	vals["core.cycles"] = float64(len(rec.durations("core.cycle")))
	vals["core.batch_mean"] = float64(t.batchSum) / float64(max(t.cycles, 1))
	vals["core.requeued"] = float64(t.requeued)
	vals["core.submit_p50_us"] = percentile(usAll(rec.durations("core.submit")), 50)
	vals["core.remove_p50_us"] = percentile(usAll(rec.durations("core.remove")), 50)
}

func journalMetrics(vals map[string]float64, tjs []*tracedJournal, lras float64) {
	appends, checkpoints := 0, 0
	for _, tj := range tjs {
		appends += tj.appends
		checkpoints += tj.checkpoints
	}
	vals["journal.appends_per_lra"] = float64(appends) / lras
	vals["journal.checkpoints"] = float64(checkpoints)
}

// ilpFixture times Model.Solve on a placement-shaped model — 32 gangs of
// 6 containers over 10 nodes, 320 general-integer variables, one gang row
// per app and one fractional capacity row per node — down the solver's
// three paths: exact branch-and-bound (bounded by node count, not time,
// so the work is fixed), a warm re-solve seeded with a full solution,
// and the LP-rounding approximation. Each is the median of five solves.
func ilpFixture() (exactMs, warmMs, approxMs float64) {
	const groups, nodes, perGroup = 32, 10, 6
	m := ilp.NewModel(ilp.Maximize)
	nodeTerms := make([][]ilp.Term, nodes)
	for g := 0; g < groups; g++ {
		gang := make([]ilp.Term, nodes)
		for n := 0; n < nodes; n++ {
			v := m.Int(fmt.Sprintf("y_%d_%d", g, n), 0, perGroup)
			m.SetObjective(v, 1+float64((g*7+n*3)%5))
			nodeTerms[n] = append(nodeTerms[n], ilp.T(float64(1+(g*13+n*5)%2), v))
			gang[n] = ilp.T(1, v)
		}
		m.AddLE(fmt.Sprintf("gang_%d", g), perGroup, gang...)
	}
	for n := 0; n < nodes; n++ {
		m.AddLE(fmt.Sprintf("cap_%d", n), 28.5, nodeTerms[n]...)
	}
	arena := ilp.NewSolverArena()
	timed := func(opts ilp.Options) (float64, *ilp.Solution) {
		var ds []time.Duration
		var sol *ilp.Solution
		for i := 0; i < 5; i++ {
			t0 := time.Now()
			sol = m.Solve(opts)
			ds = append(ds, time.Since(t0))
		}
		return percentile(msAll(ds), 50), sol
	}
	approxMs, ref := timed(ilp.Options{Mode: ilp.ModeApprox, Arena: arena})
	warm := make(map[ilp.Var]float64, m.NumVars())
	for j := 0; j < m.NumVars(); j++ {
		warm[ilp.Var(j)] = ref.Value(ilp.Var(j))
	}
	exactMs, _ = timed(ilp.Options{MaxNodes: 400, RelGap: 0.01, Arena: arena})
	warmMs, _ = timed(ilp.Options{MaxNodes: 400, RelGap: 0.01, Arena: arena, WarmStarts: []map[ilp.Var]float64{warm}})
	return exactMs, warmMs, approxMs
}
