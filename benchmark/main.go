// Command benchmark is the repository's benchmark: four deterministic,
// Step-driven workloads against the layers' public Go APIs, measuring
// one submission's journey from submit to deployed end to end and, in a
// separate traced run, layer by layer. See README.md.
//
//	go run ./benchmark -workload ilp_steady -seed 1 -seconds 20 -trace 0
//	go run ./benchmark -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// metricDef declares one reported metric. bound is the share of the
// parent's median an end-to-end metric may worsen by; per-layer metrics
// have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what a user of the scheduler sees. BENCHMARK.json repeats
// this table; TestBenchmarkJSON keeps the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"lras_per_s", "1/s", "higher", 0.25},
	{"deploy_p50_ms", "ms", "lower", 0.25},
	{"deploy_p80_ms", "ms", "lower", 0.25},
	{"alloc_kb_per_lra", "kB", "lower", 0.05},
	{"constraints_met_pct", "%", "higher", 0.005},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the one JSON object a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// info is everything else worth keeping about a run; it is printed on
// its own line before the result and stored beside it by -out.
type info struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	Seconds     int     `json:"seconds"`
	Trace       int     `json:"trace"`
	LRAs        int     `json:"lras"`
	Deployed    int     `json:"deployed"`
	Fingerprint string  `json:"fingerprint"`
	Truncated   bool    `json:"truncated,omitempty"`
	WallS       float64 `json:"wall_s"`
	NumCPU      int     `json:"num_cpu"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	JournalFS   string  `json:"journal_fs,omitempty"`
	// CalmBlocks of the measured phase's blocks entered the timings;
	// StolenPct is the host's steal time as a share of the phase's wall.
	CalmBlocks int     `json:"calm_blocks,omitempty"`
	StolenPct  float64 `json:"stolen_pct"`
	// HostSlowdown is the reference kernel's median time over the calm
	// blocks ÷ its nominal time: the factor the reported timings were
	// brought back to the host's reference speed by (hostspeed.go).
	HostSlowdown float64 `json:"host_slowdown"`
	// The timings as measured, before that: set-up, throughput and the
	// deploy latency distribution of the calm blocks. p90 and beyond are
	// not gated because on ilp_steady they do not repeat (README, Noise
	// hygiene).
	SetupS   float64            `json:"setup_s_measured,omitempty"`
	LRAsPerS float64            `json:"lras_per_s_measured,omitempty"`
	DeployMs map[string]float64 `json:"deploy_ms_measured,omitempty"`
	// Counts that must repeat exactly for one seed.
	Counts map[string]int `json:"counts,omitempty"`
}

// record is one line of an -out file.
type record struct {
	Info   info   `json:"info"`
	Result result `json:"result"`
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run: ilp_steady, two_sched, svc_durable, fed_route or all")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Int("seconds", 20, "sizes the measured phase: LRAs submitted = the workload's probed LRAs/s × seconds")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics from spans, on a third of the operations")
		scale   = flag.Float64("scale", 1, "multiplies the operation count (tests use 0.02)")
		out     = flag.String("out", "", "append the run's info and result as one JSON line to this file")
		outdir  = flag.String("outdir", filepath.Join("benchmark", "out"), "directory for traces and journals")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments instead of running")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.jsonl b.jsonl")
			os.Exit(2)
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	var run []*workloadDef
	if *name == "all" {
		run = workloads
	} else if w := findWorkload(*name); w != nil {
		run = []*workloadDef{w}
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	code := 0
	for _, w := range run {
		rec, err := runWorkload(w, runConfig{
			seed: *seed, seconds: *seconds, scale: *scale, traced: *trace != 0, outdir: *outdir, setups: setupRepeats, setupBudget: setupBudget,
		})
		if err != nil {
			// Correctness failed: no metrics are printed.
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			code = 1
			continue
		}
		line, _ := json.Marshal(rec.Info)
		fmt.Printf("%s\n", line)
		line, _ = json.Marshal(rec.Result)
		fmt.Printf("%s\n", line)
		if *out != "" {
			if err := appendRecord(*out, rec); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
				code = 1
			}
		}
	}
	os.Exit(code)
}

func appendRecord(path string, rec *record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// lraCount is the measured phase's size for a run of the given length.
func lraCount(w *workloadDef, seconds int, scale float64, traced bool) int {
	n := w.lrasPerSec * float64(seconds) * scale
	if traced {
		n /= 3
	}
	if n < 10 {
		n = 10
	}
	return int(math.Round(n))
}

// An untraced run sets the workload up setupRepeats times, and up to
// three times as often while that has taken less than setupBudget: the
// short set-ups are the noisy ones. setup_s is the median.
const (
	setupRepeats = 3
	setupBudget  = 3 * time.Second
)

// runConfig is one run's flags.
type runConfig struct {
	seed    int64
	seconds int
	scale   float64
	traced  bool
	outdir  string
	// An untraced run sets up at least setups times, and up to three
	// times as often while that has taken less than setupBudget.
	setups      int
	setupBudget time.Duration
}

// runWorkload runs one workload once: an untraced run reports the
// end-to-end metrics, a traced run the per-layer ones.
func runWorkload(w *workloadDef, cfg runConfig) (*record, error) {
	began := time.Now()
	seed, seconds, traced, outdir := cfg.seed, cfg.seconds, cfg.traced, cfg.outdir
	lras := lraCount(w, seconds, cfg.scale, traced)
	capWall := 5 * time.Duration(seconds) * time.Second
	newEnv := func(rec *recorder) *env {
		return &env{w: w, seed: seed, lras: lras, shrink: min(1, 5*cfg.scale), rec: rec, outdir: outdir}
	}
	inf := info{
		Workload: w.name, Seed: seed, Seconds: seconds, LRAs: lras,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	res := result{Metrics: map[string]metricValue{}}

	// The untraced run. A traced invocation runs it too, on the same
	// third of the operations, as the reference its overhead is measured
	// against.
	var setups, setupsAtRef []float64 // as measured, and at the host's reference speed
	var e *env
	repeats := cfg.setups
	if traced {
		repeats = 1
	}
	for i := 0; i < repeats || (!traced && i < 3*repeats && time.Since(began) < cfg.setupBudget); i++ {
		if e != nil {
			e.t.close()
		}
		e = newEnv(nil)
		t0 := time.Now()
		if err := e.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(t0)
		// The reference kernel ran inside the set-up: its time is not the
		// set-up's.
		refs := blockRefs(e.l.ph.blocks)
		for _, r := range refs {
			took -= r
		}
		setups = append(setups, took.Seconds())
		setupsAtRef = append(setupsAtRef, took.Seconds()/slowdown(refs))
	}
	m := e.measure(capWall)
	fp, errs := e.gate()
	e.t.close()
	var rcv *recovery
	if svc, ok := e.t.(*svcTarget); ok && len(errs) == 0 {
		inf.JournalFS = fsType(svc.dir)
		n := 1
		if traced {
			n = 20
		}
		var err error
		if rcv, err = recoverJournal(svc.dir, e.l.live, n); err != nil {
			errs = append(errs, err)
		} else if err := os.RemoveAll(svc.dir); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("correctness gate: %d failures, first: %w", len(errs), errs[0])
	}
	ph := &e.l.ph
	res.Correct = true
	res.Attempted, res.Failed = ph.attempted, ph.failed
	inf.Deployed, inf.Fingerprint, inf.Truncated = ph.deployed, fp, m.truncated
	inf.Counts = e.counts(m)
	calm := calmBlocks(ph.blocks)
	inf.CalmBlocks, inf.StolenPct = len(calm), 100*stolenShare(ph.blocks)
	slow := slowdown(blockRefs(calm))
	inf.HostSlowdown = slow
	if !traced {
		deploy := msAll(pooled(calm))
		inf.DeployMs = map[string]float64{}
		for _, q := range []int{25, 50, 75, 80, 90, 95, 99} {
			inf.DeployMs[fmt.Sprintf("p%d", q)] = percentile(deploy, float64(q))
		}
		inf.SetupS, inf.LRAsPerS = median(setups), median(blockRates(calm))
		// Timings are reported as at the host's reference speed.
		vals := map[string]float64{
			"setup_s":             median(setupsAtRef),
			"lras_per_s":          inf.LRAsPerS * slow,
			"deploy_p50_ms":       inf.DeployMs["p50"] / slow,
			"deploy_p80_ms":       inf.DeployMs["p80"] / slow,
			"alloc_kb_per_lra":    float64(m.allocBytes) / 1024 / float64(max(ph.deployed, 1)),
			"constraints_met_pct": 100 * (1 - float64(m.violating)/float64(max(m.subject, 1))),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{vals[d.name], d.unit}
		}
	} else {
		te := newEnv(newRecorder())
		if err := te.setup(); err != nil {
			return nil, fmt.Errorf("traced set-up: %w", err)
		}
		tm := te.measure(capWall)
		tfp, terrs := te.gate()
		te.t.close()
		if len(terrs) > 0 {
			return nil, fmt.Errorf("traced correctness gate: %d failures, first: %w", len(terrs), terrs[0])
		}
		if tfp != fp && !w.wallClockSolver {
			return nil, fmt.Errorf("traced run placed differently: fingerprint %s, untraced %s", tfp, fp)
		}
		layerMetrics(res.Metrics, e, m, te, tm, rcv)
		if err := te.rec.write(filepath.Join(outdir, "trace_"+w.name+".json")); err != nil {
			return nil, err
		}
		inf.Trace = 1
	}
	inf.WallS = time.Since(began).Seconds()
	return &record{Info: inf, Result: res}, nil
}

// counts are the operation counts that must repeat exactly for one seed.
func (e *env) counts(m *measured) map[string]int {
	c := e.t.counts()
	c["attempted"], c["failed"], c["deployed"] = e.l.ph.attempted, e.l.ph.failed, e.l.ph.deployed
	c["iterations"] = e.l.ph.iterations()
	c["subject_containers"], c["violating_containers"] = m.subject, m.violating
	c["exact_solves"], c["deadline_hits"] = m.pipeline.exact, m.pipeline.deadlineHits
	return c
}

// fsType names the filesystem a directory is on, for the record: the
// journal's fsync cost is the host's, not the program's.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch st.Type {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", st.Type)
}
