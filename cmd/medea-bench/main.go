// Command medea-bench measures the ILP solver and the scheduling cycle
// and emits machine-readable benchmark artifacts: BENCH_ilp.json for the
// solver and BENCH_pipeline.json for the end-to-end cycle, each with
// ns/op, allocs/op and the solver deadline-hit rate.
//
// The ILP suite is benchmarked per solving path: exact search with cold
// allocation, exact search over a pooled SolverArena, exact search
// warm-started from a prior solution, and the LP-relaxation rounding
// fast path on a placement-shaped fixture. A solve runs on one
// goroutine, so each path has one row, taken at the host's GOMAXPROCS.
// BENCH_ilp.json carries the per-path numbers plus derived comparisons
// (arena allocation reduction, warm-vs-cold speedup, approx-vs-exact
// speedup and objective ratio).
//
// The pipeline fixture is 12 constraint-independent LRAs, which
// core.placeBatch solves concurrently — the one fan-out in the placement
// path. It gets a row at GOMAXPROCS 1 and, on hosts that have more, one
// at runtime.NumCPU(); no row claims a CPU count the host lacks.
//
// -maxallocs / -maxbytes cap the arena-backed exact paths' allocs/op and
// bytes/op — the canary for accidental per-node garbage creeping back
// into the solver hot loop — and -gate holds the pipeline cycle to
// pipelineMaxAllocs, the same canary for everything around the solver.
// Allocation counts do not depend on the host, so neither gate skips.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/core"
	"medea/internal/ilp"
	"medea/internal/lra"
	"medea/internal/resource"
)

// pipelineMaxAllocs caps the pipeline fixture's allocs/op on every row
// under -gate: 1.25x the value recorded when PR 20 made a Place resolve
// its constraints and score each placement once (23,210; 42,511 before).
const pipelineMaxAllocs = 29012

type benchResult struct {
	CPU             int     `json:"cpu"`
	NsPerOp         int64   `json:"ns_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
	Iterations      int     `json:"iterations"`
	DeadlineHitRate float64 `json:"deadline_hit_rate"`
}

type benchFile struct {
	Benchmark string        `json:"benchmark"`
	Fixture   string        `json:"fixture"`
	NumCPU    int           `json:"num_cpu"`
	Count     int           `json:"count"`
	Results   []benchResult `json:"results"`
}

// pathFile is one solving path's row in BENCH_ilp.json.
type pathFile struct {
	Path    string        `json:"path"`
	Fixture string        `json:"fixture"`
	Results []benchResult `json:"results"`
}

// comparisonSet holds the derived cross-path numbers. The allocation
// ratio compares the two knapsack paths; the warm and approx numbers come
// from single timed solves of the large placement fixture — cold exact is
// time-boxed (at this size it cannot close the tree, which is exactly why
// the warm and approximate paths exist), approx runs free, and warm
// re-solves seeded with the approx solution under the production 1%
// relative gap.
type comparisonSet struct {
	ArenaAllocsReduction float64 `json:"arena_allocs_reduction"`
	WarmVsColdSpeedup    float64 `json:"warm_vs_cold_speedup"`
	ApproxVsExactSpeedup float64 `json:"approx_vs_exact_speedup"`
	ApproxObjectiveRatio float64 `json:"approx_objective_ratio"`
	ExactObjective       float64 `json:"exact_objective"`
	ApproxObjective      float64 `json:"approx_objective"`
	ExactProvedOptimal   bool    `json:"exact_proved_optimal"`
	ExactBudget          string  `json:"exact_budget"`
}

type ilpBenchFile struct {
	Benchmark   string        `json:"benchmark"`
	NumCPU      int           `json:"num_cpu"`
	Count       int           `json:"count"`
	Paths       []pathFile    `json:"paths"`
	Comparisons comparisonSet `json:"comparisons"`
}

const knapsackFixture = "correlated 0/1 knapsack, 34 vars, full solve"
const placementFixture = "placement model, 32 gangs x 10 nodes, 320 int vars"

// ilpFixture builds the solver benchmark model: a strongly correlated
// 0/1 knapsack (profit = weight + constant, capacity = half the total
// weight). The LP bound is nearly flat across subtrees, so the search
// prunes poorly and solves ~20,000 LP relaxations.
func ilpFixture() (*ilp.Model, int) {
	const n = 34
	m := ilp.NewModel(ilp.Maximize)
	terms := make([]ilp.Term, n)
	total := 0.0
	for j := 0; j < n; j++ {
		v := m.Binary("x")
		w := float64(13 + (j*7919)%37)
		m.SetObjective(v, w+10)
		terms[j] = ilp.T(w, v)
		total += w
	}
	m.AddLE("cap", float64(int(total/2)), terms...)
	return m, n
}

// lraFixture builds the large placement-shaped model: 32 container
// gangs assigned across 10 nodes (320 general-integer variables),
// gang-size rows per app and a shared capacity row per node. The
// fractional capacities keep the LP optimum fractional, so the
// approximate path genuinely rounds, and the search tree is far too
// wide for exact search to close — the regime the relaxation fast path
// is for.
func lraFixture() *ilp.Model {
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
	return m
}

// runSolves wraps testing.Benchmark around a solve loop `count` times
// and keeps the best (lowest ns/op) run.
func runSolves(count int, loop func(b *testing.B) (iters, hits int)) benchResult {
	var best benchResult
	for c := 0; c < count; c++ {
		iters, hits := 0, 0
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			i, h := loop(b)
			iters += i
			hits += h
		})
		res := benchResult{
			CPU:         runtime.GOMAXPROCS(0),
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
		}
		if iters > 0 {
			res.DeadlineHitRate = float64(hits) / float64(iters)
		}
		if best.NsPerOp == 0 || res.NsPerOp < best.NsPerOp {
			best = res
		}
	}
	return best
}

// benchExactCold is the baseline: every solve allocates its working set
// from scratch (no arena, no warm start).
func benchExactCold(count int) benchResult {
	m, _ := ilpFixture()
	return runSolves(count, func(b *testing.B) (int, int) {
		iters, hits := 0, 0
		for i := 0; i < b.N; i++ {
			sol := m.Solve(ilp.Options{MaxNodes: 200000})
			iters++
			if sol.DeadlineHit {
				hits++
			}
			if sol.Status != ilp.Optimal {
				b.Fatalf("cold solve ended %v, want Optimal", sol.Status)
			}
		}
		return iters, hits
	})
}

// benchExactArena reuses one SolverArena across every solve — the
// production shape: the LRA scheduler checks an arena out of a pool per
// Place call, so steady-state solves run out of recycled memory.
func benchExactArena(count int) benchResult {
	m, _ := ilpFixture()
	arena := ilp.NewSolverArena()
	return runSolves(count, func(b *testing.B) (int, int) {
		iters, hits := 0, 0
		for i := 0; i < b.N; i++ {
			sol := m.Solve(ilp.Options{MaxNodes: 200000, Arena: arena})
			iters++
			if sol.DeadlineHit {
				hits++
			}
			if sol.Status != ilp.Optimal {
				b.Fatalf("arena solve ended %v, want Optimal", sol.Status)
			}
		}
		return iters, hits
	})
}

// benchExactWarm measures the steady-state re-solve: the placement
// fixture warm-started from the previous cycle's solution over a pooled
// arena, with the scheduler's production 1% relative gap. The warm
// incumbent meets the root bound almost immediately, so this is the
// cost a scheduling cycle pays when nothing changed — the case
// cross-cycle memory exists for.
func benchExactWarm(count int) benchResult {
	m := lraFixture()
	arena := ilp.NewSolverArena()
	warm := prevCycleSolution(m, arena)
	return runSolves(count, func(b *testing.B) (int, int) {
		iters, hits := 0, 0
		for i := 0; i < b.N; i++ {
			sol := m.Solve(ilp.Options{
				MaxNodes: 200000, RelGap: 0.01, Arena: arena,
				WarmStarts: []map[ilp.Var]float64{warm},
			})
			iters++
			if sol.DeadlineHit {
				hits++
			}
			if sol.Status != ilp.Optimal && sol.Status != ilp.Feasible {
				b.Fatalf("warm solve ended %v", sol.Status)
			}
			if !sol.WarmUsed {
				b.Fatal("warm start was not used")
			}
		}
		return iters, hits
	})
}

// prevCycleSolution plays the role of the scheduler's cycle memory: a
// full integer solution of m from "last cycle" (produced by the
// relaxation path, which is how a first placement of this size lands in
// production too).
func prevCycleSolution(m *ilp.Model, arena *ilp.SolverArena) map[ilp.Var]float64 {
	ref := m.Solve(ilp.Options{Mode: ilp.ModeApprox, Arena: arena})
	if ref.Status != ilp.Optimal && ref.Status != ilp.Feasible {
		panic(fmt.Sprintf("warm reference solve ended %v", ref.Status))
	}
	warm := make(map[ilp.Var]float64, m.NumVars())
	for j := 0; j < m.NumVars(); j++ {
		warm[ilp.Var(j)] = ref.Value(ilp.Var(j))
	}
	return warm
}

// benchApprox times the LP-relaxation + rounding fast path on the large
// placement fixture (the exact tree there is unclosable; see
// approxComparisons for the quality side of the trade).
func benchApprox(count int) benchResult {
	m := lraFixture()
	arena := ilp.NewSolverArena()
	return runSolves(count, func(b *testing.B) (int, int) {
		iters, hits := 0, 0
		for i := 0; i < b.N; i++ {
			sol := m.Solve(ilp.Options{Mode: ilp.ModeApprox, Arena: arena})
			iters++
			if sol.DeadlineHit {
				hits++
			}
			if sol.Status != ilp.Optimal && sol.Status != ilp.Feasible {
				b.Fatalf("approx solve ended %v", sol.Status)
			}
		}
		return iters, hits
	})
}

// fixtureComparisons runs the placement fixture once through each path
// — exact time-boxed to exactBudget (it cannot close 320 integer vars),
// approx unboxed, and a warm re-solve seeded with the approx solution —
// and reports relative speed and objective quality.
func fixtureComparisons(exactBudget time.Duration, c *comparisonSet) {
	m := lraFixture()
	arena := ilp.NewSolverArena()

	t0 := time.Now()
	exact := m.Solve(ilp.Options{
		RelGap: 0.01, Arena: arena,
		Deadline: t0.Add(exactBudget), MaxNodes: 500000,
	})
	exactNs := time.Since(t0)

	t0 = time.Now()
	approx := m.Solve(ilp.Options{Mode: ilp.ModeApprox, Arena: arena})
	approxNs := time.Since(t0)

	warm := make(map[ilp.Var]float64, m.NumVars())
	for j := 0; j < m.NumVars(); j++ {
		warm[ilp.Var(j)] = approx.Value(ilp.Var(j))
	}
	t0 = time.Now()
	m.Solve(ilp.Options{
		RelGap: 0.01, MaxNodes: 500000, Arena: arena,
		WarmStarts: []map[ilp.Var]float64{warm},
	})
	warmNs := time.Since(t0)

	c.ExactObjective = exact.Objective
	c.ApproxObjective = approx.Objective
	c.ExactProvedOptimal = exact.Status == ilp.Optimal && !exact.DeadlineHit
	c.ExactBudget = exactBudget.String()
	if approxNs > 0 {
		c.ApproxVsExactSpeedup = float64(exactNs) / float64(approxNs)
	}
	if warmNs > 0 {
		c.WarmVsColdSpeedup = float64(exactNs) / float64(warmNs)
	}
	if exact.Objective != 0 {
		c.ApproxObjectiveRatio = approx.Objective / exact.Objective
	}
}

// pipelineApp is one LRA of the pipeline fixture: four containers that
// must spread across nodes, tagged per app so the union-find partition
// sees independent components and solves them concurrently.
func pipelineApp(i int) *lra.Application {
	id := fmt.Sprintf("svc-%02d", i)
	self := constraint.E(constraint.AppIDTag(id))
	return &lra.Application{
		ID: id,
		Groups: []lra.ContainerGroup{{
			Name: "w", Count: 4, Demand: resource.New(200, 4),
			Tags: []constraint.Tag{constraint.Tag(fmt.Sprintf("t%d", i))},
		}},
		Constraints: []constraint.Constraint{
			constraint.New(constraint.AntiAffinity(self, self, constraint.Node)),
		},
	}
}

// benchPipeline times one full scheduling cycle — cluster build, batch
// submission and RunCycle over 12 independent ILP sub-batches on a
// 64-node grid — per iteration.
func benchPipeline(count int) benchResult {
	return runSolves(count, func(b *testing.B) (int, int) {
		iters, hits := 0, 0
		for i := 0; i < b.N; i++ {
			cl := cluster.Grid(64, 4, resource.New(4000, 64))
			m := core.New(cl, lra.NewILP(), core.Config{
				Interval: time.Second,
				Options:  lra.Options{SolverBudget: 30 * time.Second},
			})
			now := time.Unix(0, 0)
			for a := 0; a < 12; a++ {
				if err := m.SubmitLRA(pipelineApp(a), now); err != nil {
					b.Fatalf("submit: %v", err)
				}
			}
			now = now.Add(time.Second)
			stats := m.RunCycle(now)
			if stats.Placed != 12 {
				b.Fatalf("cycle placed %d/12", stats.Placed)
			}
			iters++
			if m.Pipeline.DeadlineHits() > 0 {
				hits++
			}
		}
		return iters, hits
	})
}

func writeJSON(dir, name string, f any) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

func main() {
	count := flag.Int("count", 3, "runs per configuration; the best (lowest ns/op) is kept")
	gate := flag.Bool("gate", false, "fail if the pipeline cycle exceeds its allocs/op cap")
	maxAllocs := flag.Int64("maxallocs", 0, "fail if an arena-backed exact solve exceeds this many allocs/op (0 = off)")
	maxBytes := flag.Int64("maxbytes", 0, "fail if an arena-backed exact solve exceeds this many bytes/op (0 = off)")
	exactBudget := flag.Duration("exact-budget", 2*time.Second, "time box for the exact reference solve of the placement fixture")
	outDir := flag.String("out", ".", "directory for BENCH_*.json artifacts")
	flag.Parse()

	// ILP suite: one row per solving path.
	paths := []struct {
		name, fixture string
		run           func(count int) benchResult
	}{
		{"exact-cold", knapsackFixture, benchExactCold},
		{"exact-arena", knapsackFixture, benchExactArena},
		{"exact-warm", placementFixture, benchExactWarm},
		{"approx", placementFixture, benchApprox},
	}
	ilpFile := ilpBenchFile{Benchmark: "ilp-solve", NumCPU: runtime.NumCPU(), Count: *count}
	pathAt := make(map[string]benchResult)
	for _, p := range paths {
		res := p.run(*count)
		fmt.Printf("ilp/%-12s cpu=%d  %12d ns/op  %8d allocs/op  %10d B/op  deadline-hit %.2f\n",
			p.name, res.CPU, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp, res.DeadlineHitRate)
		pathAt[p.name] = res
		ilpFile.Paths = append(ilpFile.Paths, pathFile{Path: p.name, Fixture: p.fixture, Results: []benchResult{res}})
	}

	cold, arena := pathAt["exact-cold"], pathAt["exact-arena"]
	if arena.AllocsPerOp > 0 {
		ilpFile.Comparisons.ArenaAllocsReduction = float64(cold.AllocsPerOp) / float64(arena.AllocsPerOp)
	}
	fixtureComparisons(*exactBudget, &ilpFile.Comparisons)
	fmt.Printf("ilp comparisons: arena cuts allocs %.0fx; on the placement fixture a warm "+
		"re-solve is %.0fx and approx %.0fx faster than a %s cold exact box, approx at %.3f "+
		"of the box's objective\n",
		ilpFile.Comparisons.ArenaAllocsReduction, ilpFile.Comparisons.WarmVsColdSpeedup,
		ilpFile.Comparisons.ApproxVsExactSpeedup, ilpFile.Comparisons.ExactBudget,
		ilpFile.Comparisons.ApproxObjectiveRatio)
	if err := writeJSON(*outDir, "BENCH_ilp.json", ilpFile); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// Pipeline suite: the sub-batch fan-out on one CPU and on all of them.
	pipeFile := benchFile{
		Benchmark: "pipeline-cycle",
		Fixture:   "64-node grid, 12 anti-affinity LRAs, build + one RunCycle",
		NumCPU:    runtime.NumCPU(), Count: *count,
	}
	cpus := []int{1}
	if runtime.NumCPU() > 1 {
		cpus = append(cpus, runtime.NumCPU())
	}
	prev := runtime.GOMAXPROCS(0)
	for _, cpu := range cpus {
		runtime.GOMAXPROCS(cpu)
		res := benchPipeline(*count)
		pipeFile.Results = append(pipeFile.Results, res)
		fmt.Printf("pipeline-cycle   cpu=%d  %12d ns/op  %8d allocs/op  deadline-hit %.2f\n",
			cpu, res.NsPerOp, res.AllocsPerOp, res.DeadlineHitRate)
	}
	runtime.GOMAXPROCS(prev)
	if err := writeJSON(*outDir, "BENCH_pipeline.json", pipeFile); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// An arena-backed exact solve must stay within its allocs/op and
	// bytes/op caps: the cheap canary for accidental per-node or
	// per-candidate garbage returning to the solver hot path.
	for _, name := range []string{"exact-arena", "exact-warm"} {
		r := pathAt[name]
		if *maxAllocs > 0 && r.AllocsPerOp > *maxAllocs {
			fmt.Fprintf(os.Stderr, "gate: FAIL — %s allocates %d/op, cap is %d\n", name, r.AllocsPerOp, *maxAllocs)
			os.Exit(1)
		}
		if *maxBytes > 0 && r.BytesPerOp > *maxBytes {
			fmt.Fprintf(os.Stderr, "gate: FAIL — %s allocates %d B/op, cap is %d\n", name, r.BytesPerOp, *maxBytes)
			os.Exit(1)
		}
	}
	if *maxAllocs > 0 || *maxBytes > 0 {
		fmt.Printf("gate: OK — arena-backed exact paths within allocs/bytes caps\n")
	}

	if *gate {
		for _, r := range pipeFile.Results {
			if r.AllocsPerOp > pipelineMaxAllocs {
				fmt.Fprintf(os.Stderr, "gate: FAIL — pipeline cycle at %d CPUs allocates %d/op, cap is %d\n",
					r.CPU, r.AllocsPerOp, pipelineMaxAllocs)
				os.Exit(1)
			}
		}
		fmt.Printf("gate: OK — pipeline cycle within %d allocs/op on every row\n", pipelineMaxAllocs)
	}
}
