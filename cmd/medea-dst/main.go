// Command medea-dst runs the deterministic simulation harness: the full
// federation stack — journaled ILP scheduler cores behind their serving
// APIs, scout, balancer — on virtual time under seeded fault schedules
// (member crashes with torn journal tails, partitions, slow-tail
// networks, node failures drawn from service-unit traces, racing client
// traffic, two-phase migrations with armed crash points, member drains,
// rolling restarts),
// with cross-layer invariants checked after every event.
//
// Modes:
//
//	medea-dst -seeds 200 -events 500          sweep seeds 1..200
//	medea-dst -seed 42                        one seed, run twice, traces must match byte-for-byte
//	medea-dst -replay dst-repro.json          re-run a minimized failure artifact
//	medea-dst -long -max-wall 10m             open-ended sweep until the wall budget runs out
//
// On a violation the failing schedule is minimized by delta debugging
// and written as a replayable JSON artifact (-artifact).
//
// Exit codes: 0 pass; 1 invariant violation (artifact written);
// 2 nondeterminism (same schedule, different traces); 3 usage or
// internal error; 4 replayed artifact did not reproduce.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"medea/internal/dst"
)

const (
	exitPass      = 0
	exitViolation = 1
	exitNondet    = 2
	exitUsage     = 3
	exitNoRepro   = 4
)

func main() {
	var (
		seeds    = flag.Int("seeds", 100, "sweep seeds 1..N")
		events   = flag.Int("events", 400, "events per seed")
		seed     = flag.Int64("seed", 0, "run a single seed (twice, comparing traces) instead of sweeping")
		replay   = flag.String("replay", "", "replay a failure artifact instead of generating schedules")
		artifact = flag.String("artifact", "dst-repro.json", "where to write the minimized failure artifact")
		inject   = flag.Bool("inject", false, "inject a deliberate ledger hole (harness self-test: must be caught)")
		members  = flag.Int("members", 0, "member clusters per fleet (0 = default)")
		nodes    = flag.Int("nodes", 0, "nodes per member (0 = default)")
		long     = flag.Bool("long", false, "ignore -seeds; sweep until -max-wall is spent")
		maxWall  = flag.Duration("max-wall", 10*time.Minute, "wall-clock budget for -long sweeps")
		verbose  = flag.Bool("v", false, "print the full trace of failing runs")
	)
	flag.Parse()

	switch {
	case *replay != "":
		os.Exit(runReplay(*replay, *verbose))
	case *seed != 0:
		cfg := dst.Config{Seed: *seed, Events: *events, Members: *members, Nodes: *nodes, Inject: *inject}
		os.Exit(runOne(cfg, *artifact, *verbose))
	default:
		os.Exit(runSweep(*seeds, *events, *members, *nodes, *inject, *long, *maxWall, *artifact, *verbose))
	}
}

// runReplay re-runs a minimized artifact and checks the recorded
// violation reappears.
func runReplay(path string, verbose bool) int {
	art, err := dst.ReadArtifact(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "medea-dst: %v\n", err)
		return exitUsage
	}
	want := "(none)"
	if art.Violation != nil {
		want = art.Violation.Name
	}
	fmt.Printf("replaying %s: seed=%d events=%d (minimized from %d), expecting %s\n",
		path, art.Seed, len(art.Events), art.FullEvents, want)
	r := art.Replay()
	if verbose {
		os.Stdout.Write(r.Trace)
	}
	if r.Violation == nil {
		fmt.Println("replay: no violation reproduced")
		return exitNoRepro
	}
	if art.Violation != nil && r.Violation.Name != art.Violation.Name {
		fmt.Printf("replay: got %s, artifact recorded %s\n", r.Violation.Name, art.Violation.Name)
		return exitNoRepro
	}
	fmt.Printf("replay: reproduced %v\n", r.Violation)
	return exitPass
}

// runOne runs a single seed twice — the determinism gate — then
// minimizes and writes an artifact if the run found a violation.
func runOne(cfg dst.Config, artifactPath string, verbose bool) int {
	events := dst.Generate(cfg)
	r1 := dst.Run(cfg, events)
	r2 := dst.Run(cfg, events)
	if !bytes.Equal(r1.Trace, r2.Trace) {
		fmt.Fprintf(os.Stderr, "medea-dst: seed %d: two runs of the same schedule produced different traces\n", cfg.Seed)
		return exitNondet
	}
	if verbose || r1.Violation != nil {
		os.Stdout.Write(r1.Trace)
	}
	if r1.Violation == nil {
		fmt.Printf("seed %d: pass (%d events, traces byte-identical across two runs)\n", cfg.Seed, r1.Executed)
		return exitPass
	}
	return reportAndMinimize(cfg, events, r1, artifactPath)
}

// runSweep runs many seeds (in parallel workers; each run is itself
// single-threaded and deterministic) and reports the lowest failing
// seed, minimized.
func runSweep(seeds, events, members, nodes int, inject, long bool, maxWall time.Duration, artifactPath string, verbose bool) int {
	start := time.Now()
	cfgFor := func(s int64) dst.Config {
		return dst.Config{Seed: s, Events: events, Members: members, Nodes: nodes, Inject: inject}
	}

	type fail struct {
		cfg dst.Config
		res *dst.Result
	}
	var (
		mu       sync.Mutex
		failures []fail
		ran      int
	)
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8
	}
	work := make(chan int64)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				cfg := cfgFor(s)
				r := dst.RunSeed(cfg)
				mu.Lock()
				ran++
				if r.Violation != nil {
					failures = append(failures, fail{cfg, r})
				}
				mu.Unlock()
			}
		}()
	}
	if long {
		var s int64
		for s = 1; time.Since(start) < maxWall; s++ {
			work <- s
		}
	} else {
		for s := int64(1); s <= int64(seeds); s++ {
			work <- s
		}
	}
	close(work)
	wg.Wait()

	if len(failures) == 0 {
		fmt.Printf("dst: %d seeds x %d events: all passed (%.1fs)\n", ran, events, time.Since(start).Seconds())
		return exitPass
	}
	// Report the lowest failing seed so repeated runs chase the same bug.
	min := failures[0]
	for _, f := range failures[1:] {
		if f.cfg.Seed < min.cfg.Seed {
			min = f
		}
	}
	fmt.Printf("dst: %d of %d seeds failed; minimizing seed %d\n", len(failures), ran, min.cfg.Seed)
	if verbose {
		os.Stdout.Write(min.res.Trace)
	}
	return reportAndMinimize(min.cfg, dst.Generate(min.cfg), min.res, artifactPath)
}

// reportAndMinimize shrinks the failing schedule, writes the replay
// artifact, and prints how to reproduce.
func reportAndMinimize(cfg dst.Config, events []dst.Event, r *dst.Result, artifactPath string) int {
	fmt.Printf("seed %d: %v\n", cfg.Seed, r.Violation)
	minimized := dst.Minimize(cfg, events, r.Violation.Name)
	fmt.Printf("minimized schedule: %d -> %d events\n", len(events), len(minimized))
	art := dst.NewArtifact(cfg, r.Violation, minimized, len(events))
	if err := dst.WriteArtifact(artifactPath, art); err != nil {
		fmt.Fprintf(os.Stderr, "medea-dst: writing artifact: %v\n", err)
		return exitUsage
	}
	fmt.Printf("artifact written: %s (replay with: medea-dst -replay %s)\n", artifactPath, artifactPath)
	return exitViolation
}
