package main

import (
	"math/rand"
	"path/filepath"
	"time"

	"medea/internal/core"
	"medea/internal/lra"
)

// workloadDef describes one of the four benchmark workloads. Sizes are
// operation counts, not durations: lrasPerSec is the throughput probed
// at the commit that defined the benchmark on a 2-core host, and a run
// of -seconds S submits lrasPerSec×S LRAs whatever the machine's speed,
// so counts, allocations and placement quality repeat exactly and only
// the timings vary.
type workloadDef struct {
	name       string
	why        string
	lrasPerSec float64
	fill       int // LRAs held deployed in steady state
	minBatch   int
	maxBatch   int
	// fillBatch is the batch size of the initial fill (0 = as measured);
	// the heuristic workloads fill in larger batches to keep set-up short.
	fillBatch int
	// wallClockSolver marks the workload whose placements may differ
	// between runs of one seed: its solver stops on a wall-clock budget.
	wallClockSolver bool
	build           func(e *env) error
}

// env is one built instance of a workload: the system, the loop driving
// it and the inputs not yet consumed.
type env struct {
	w    *workloadDef
	seed int64
	lras int // LRAs the measured phase submits
	// shrink scales fill and warm-up down for runs far below full size
	// (1 = as declared), so that the tests' -scale 0.02 takes a second.
	shrink float64
	rec    *recorder
	outdir string

	t     target
	l     *loop
	specs []*spec
}

// warmupIters is the number of steady-state loop iterations that run
// before the measured phase.
const warmupIters = 20

// setupBlockIters is how many loop iterations of the set-up share one
// run of the reference kernel (hostspeed.go): a set-up is short, so it
// samples the host's speed densely.
const setupBlockIters = 2

var workloads = []*workloadDef{
	{
		name:       "ilp_steady",
		why:        "64-node core with the ILP scheduler (500 ms budget, exact mode): ilp and lra/ilpsched.go do >80% of the work; no other workload touches ilp",
		lrasPerSec: 50,
		fill:       26,
		minBatch:   1,
		maxBatch:   2,
		fillBatch:  1, // one-LRA solves close fast: no 500 ms deadline cycles in set-up

		wallClockSolver: true,
		build: func(e *env) error {
			// medea-server's solver budget; the ILP deadline is the one
			// wall-clock input of the whole benchmark, so no Clock here.
			e.t = newCoreTarget(64, 8, lra.NewILP(), core.Config{SolverBudget: 500 * time.Millisecond}, false, e.rec)
			e.specs = templateApps(e.rng("apps"), e.total())
			return nil
		},
	},
	{
		name:       "two_sched",
		why:        "256-node core with Medea-NC beside the task scheduler (~130 tasks per 500 ms round, 2 LRAs every 5th): greedy.go, cluster.Clone, constraint and audit dominate and ilp is idle",
		lrasPerSec: 40,
		fill:       80,
		minBatch:   2,
		maxBatch:   2,
		fillBatch:  8,
		build: func(e *env) error {
			c := newCoreTarget(256, 8, lra.NewNodeCandidates(), core.Config{}, true, e.rec)
			st := newSchedTarget(c, taskRounds(e.rng("tasks"), 200))
			e.t = st
			e.specs = templateApps(e.rng("apps"), e.total())
			e.l.between = func() {
				for i := 0; i < 4; i++ {
					st.taskRound(false)
				}
			}
			return nil
		},
	},
	{
		name:       "svc_durable",
		why:        "medea-server's stack (server over a file-journaled 32-node NC core, fsync per record) on a loopback listener: the only workload where server, journal and core bookkeeping outweigh lra",
		lrasPerSec: 250,
		fill:       24,
		minBatch:   1,
		maxBatch:   4,
		fillBatch:  4,
		build: func(e *env) error {
			t, err := newSvcTarget(filepath.Join(e.outdir, "journal_"+e.w.name), e.rec)
			if err != nil {
				return err
			}
			e.t = t
			e.specs = spreadApps(e.rng("apps"), e.total(), "svc", 2048)
			return nil
		},
	},
	{
		name:       "fed_route",
		why:        "3-member federation (32 nodes each, memory journals, NC) on an injected clock: balancer ledger, scout reports and the in-process member transport do most of the work here and none elsewhere",
		lrasPerSec: 600,
		fill:       60,
		minBatch:   1,
		maxBatch:   1,
		fillBatch:  4,
		build: func(e *env) error {
			t, err := newFedTarget(e.rec)
			if err != nil {
				return err
			}
			e.t = t
			e.specs = spreadApps(e.rng("apps"), e.total(), "fed", 2048)
			return nil
		},
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// rng returns the seeded stream for one input of the workload; streams
// are independent so adding one never shifts another.
func (e *env) rng(stream string) *rand.Rand {
	h := int64(0)
	for _, c := range e.w.name + "/" + stream {
		h = h*131 + int64(c)
	}
	return rand.New(rand.NewSource(e.seed*1_000_003 + h))
}

// fill and warmup are the workload's declared set-up sizes, shrunk for
// small-scale runs.
func (e *env) fill() int   { return max(4, int(float64(e.w.fill)*e.shrink)) }
func (e *env) warmup() int { return max(2, int(warmupIters*e.shrink)) }

// total is the number of specs to generate: fill, warm-up and the
// measured phase.
func (e *env) total() int {
	return e.fill() + e.warmup()*e.w.minBatch + e.lras
}

// setup builds the system, fills it to the steady-state occupancy and
// warms it up. Everything it does counts as set-up time.
func (e *env) setup() error {
	e.l = &loop{rec: e.rec, fill: e.fill()}
	e.l.ph.blockIters = setupBlockIters
	if err := e.w.build(e); err != nil {
		return err
	}
	e.l.t = e.t
	lo, hi := e.w.minBatch, e.w.maxBatch
	if e.w.fillBatch > 0 {
		lo, hi = e.w.fillBatch, e.w.fillBatch
	}
	between := e.l.between
	e.l.between = nil // the fill is LRAs only
	e.specs, _ = e.l.run(e.specs, batchSizes(e.rng("fill"), e.fill(), lo, hi), time.Time{})
	e.l.between = between
	// Warm-up runs the smallest batches only: on ilp_steady a pair of
	// LRAs hits the 500 ms solver deadline often enough (half of all
	// set-ups had one) to double setup_s from one seed to the next.
	warm := make([]int, e.warmup())
	for i := range warm {
		warm[i] = e.w.minBatch
	}
	e.specs, _ = e.l.run(e.specs, warm, time.Time{})
	return nil
}
