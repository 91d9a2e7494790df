package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func smallRun(t *testing.T, w *workloadDef, seed int64, traced bool) *record {
	t.Helper()
	rec, err := runWorkload(w, runConfig{seed: seed, seconds: 20, scale: 0.02, traced: traced, outdir: t.TempDir(), setups: 1})
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.name, seed, err)
	}
	if !rec.Result.Correct || rec.Result.Failed != 0 {
		t.Fatalf("%s seed %d: correct=%v failed=%d", w.name, seed, rec.Result.Correct, rec.Result.Failed)
	}
	return rec
}

// The same seed must give the same placements, quality and operation
// counts on the workloads whose every scheduling decision runs on the
// virtual clock; another seed must give other placements.
func TestSameSeedSameOutcome(t *testing.T) {
	for _, w := range workloads {
		if w.wallClockSolver {
			continue
		}
		a, b := smallRun(t, w, 1, false), smallRun(t, w, 1, false)
		if a.Info.Fingerprint != b.Info.Fingerprint {
			t.Errorf("%s: fingerprints differ for one seed: %s vs %s", w.name, a.Info.Fingerprint, b.Info.Fingerprint)
		}
		if !reflect.DeepEqual(a.Info.Counts, b.Info.Counts) {
			t.Errorf("%s: counts differ for one seed:\n%v\n%v", w.name, a.Info.Counts, b.Info.Counts)
		}
		qa, qb := a.Result.Metrics["constraints_met_pct"].Value, b.Result.Metrics["constraints_met_pct"].Value
		if qa != qb {
			t.Errorf("%s: constraints_met_pct differs for one seed: %v vs %v", w.name, qa, qb)
		}
		// Seed 3, not 2: a run this small ends with four LRAs deployed, and
		// svc_durable's seeds 1 and 2 happen to end on the same four.
		if c := smallRun(t, w, 3, false); c.Info.Fingerprint == a.Info.Fingerprint {
			t.Errorf("%s: seeds 1 and 3 gave the same fingerprint %s", w.name, a.Info.Fingerprint)
		}
	}
}

// Under the ILP's wall-clock budget placements may differ, but what was
// attempted, deployed and failed may not.
func TestILPSameSeedSameCounts(t *testing.T) {
	w := findWorkload("ilp_steady")
	a, b := smallRun(t, w, 1, false), smallRun(t, w, 1, false)
	for _, k := range []string{"attempted", "deployed", "failed", "iterations"} {
		if a.Info.Counts[k] != b.Info.Counts[k] {
			t.Errorf("ilp_steady: %s differs for one seed: %d vs %d", k, a.Info.Counts[k], b.Info.Counts[k])
		}
	}
}

// A traced run reports every declared per-layer metric, places exactly
// what the untraced run places, and sees the layers the workload uses.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	rec := smallRun(t, findWorkload("fed_route"), 1, true)
	for _, d := range perLayer {
		if _, ok := rec.Result.Metrics[d.name]; !ok {
			t.Errorf("traced run lacks %s", d.name)
		}
	}
	if len(rec.Result.Metrics) != len(perLayer) {
		t.Errorf("traced run printed %d metrics, want %d", len(rec.Result.Metrics), len(perLayer))
	}
	for _, name := range []string{"federation.busy_pct", "lra.place_p50_ms", "journal.appends_per_lra", "server.step_p50_ms"} {
		if rec.Result.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v on fed_route, want > 0", name, rec.Result.Metrics[name].Value)
		}
	}
	if v := rec.Result.Metrics["lra.exact_solves"].Value; v != 0 {
		t.Errorf("lra.exact_solves = %v on fed_route, want 0", v)
	}
}

func TestPercentile(t *testing.T) {
	vals := []float64{40, 10, 30, 20} // sorted: 10 20 30 40
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {50, 25}, {90, 37}, {100, 40}, {25, 17.5},
	} {
		if got := percentile(vals, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("percentile of one value = %v, want 7", got)
	}
	if vals[0] != 40 {
		t.Error("percentile reordered its input")
	}
}

func TestBlockRatesAndCalmSelection(t *testing.T) {
	// Five blocks of 4 LRAs in 2 s, one of them stalled to 10 s by a
	// burst of steal: its rate is a fifth, and it is not calm.
	var blocks []*block
	for i := 0; i < 5; i++ {
		blocks = append(blocks, &block{iters: 2, units: 4, elapsed: 2 * time.Second, deploy: []time.Duration{time.Duration(i+1) * time.Millisecond}})
	}
	blocks[1].elapsed, blocks[1].stolen = 10*time.Second, 8*time.Second
	got := blockRates(blocks)
	want := []float64{2, 0.4, 2, 2, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("blockRates = %v, want %v", got, want)
	}
	if m := median(got); m != 2 {
		t.Errorf("median of block rates = %v, want 2: one stall must not move it", m)
	}
	calm := calmBlocks(blocks)
	if len(calm) != 4 {
		t.Fatalf("calmBlocks kept %d of 5 blocks, want the 4 without steal", len(calm))
	}
	deploy := pooled(calm)
	if want := []time.Duration{1e6, 3e6, 4e6, 5e6}; !reflect.DeepEqual(deploy, want) {
		t.Errorf("pooled latencies of the calm blocks = %v, want %v", deploy, want)
	}
	if got, want := stolenShare(blocks), 8.0/18.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("stolenShare = %v, want %v", got, want)
	}
	// With steal everywhere, the calmest quarter stays.
	for i, b := range blocks {
		b.stolen = time.Duration(i+1) * 100 * time.Millisecond
		b.elapsed = 2 * time.Second
	}
	if calm := calmBlocks(blocks); len(calm) != 2 {
		t.Errorf("calmBlocks kept %d of 5 blocks with rising steal, want the 2 at or below the lower quartile", len(calm))
	}
}

func TestSlowdown(t *testing.T) {
	// The median kernel time decides: one preempted kernel does not.
	ref := []time.Duration{2 * refNominal, 2 * refNominal, 2 * refNominal, 40 * refNominal, refNominal}
	if got := slowdown(ref); got != 2 {
		t.Errorf("slowdown = %v, want 2", got)
	}
	if got := slowdown(nil); got != 1 {
		t.Errorf("slowdown without kernel times = %v, want 1", got)
	}
	if a, b := refKernel(), refKernel(); a <= 0 || b <= 0 {
		t.Errorf("refKernel took %v and %v, want > 0", a, b)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	r := &recorder{spans: []span{
		{Name: "core.cycle", Start: 0, End: 100, Parent: -1},
		{Name: "lra.place", Start: 10, End: 50, Parent: 0},
		{Name: "lra.place", Start: 30, End: 60, Parent: 0}, // overlaps the first
		{Name: "journal.append", Start: 70, End: 80, Parent: 0},
	}}
	if got := r.selfOf("core.cycle"); len(got) != 1 || got[0] != 40 {
		t.Errorf("self time of core.cycle = %v, want [40ns]: 100 − (10..60) − (70..80)", got)
	}
	if got := r.layerBusy("lra"); got != 50 {
		t.Errorf("lra busy = %v, want 50ns: the two overlapping calls cover 10..60", got)
	}
}

func TestWorsening(t *testing.T) {
	if got := worsening(100, 110, "lower"); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("latency 100→110 worsens by %v, want 0.10", got)
	}
	if got := worsening(100, 90, "higher"); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("throughput 100→90 worsens by %v, want 0.10", got)
	}
	if got := worsening(100, 120, "higher"); got >= 0 {
		t.Errorf("throughput 100→120 worsens by %v, want < 0", got)
	}
}

// BENCHMARK.json repeats the workload and metric tables of this
// package; the two must not drift apart.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the package %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the package %q (%q)",
				i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the package %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the package %+v", kind, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s %s: bound differs from the package's %v", kind, d.name, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics have no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
}
