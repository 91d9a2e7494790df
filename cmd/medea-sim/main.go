// Command medea-sim regenerates the paper's tables and figures on the
// simulated substrate.
//
// Usage:
//
//	medea-sim [-seed N] [-scale F] [-budget D] [-audit MODE] <experiment>...
//	medea-sim all
//
// Experiments: fig1 fig2a fig2b fig2c fig2d fig3 table1 fig7 fig8
// fig8live fig9a fig9b fig9c fig9d fig10 fig11a fig11b fig11c hardening
// crashrestart
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"medea/internal/audit"
	"medea/internal/experiments"
	"medea/internal/metrics"
)

func main() {
	seed := flag.Int64("seed", 42, "random seed")
	scale := flag.Float64("scale", 0.25, "scale factor (1.0 = paper dimensions)")
	budget := flag.Duration("budget", 500*time.Millisecond, "ILP solver budget per component solve")
	auditMode := flag.String("audit", "off", "cluster-invariant auditor: off, metrics or fail-fast")
	journalDir := flag.String("journal", "", "directory for file-backed scheduler journals (crashrestart; default in-memory)")
	crashAt := flag.Int("crash-at", 0, "durability op to crash the scheduler before (crashrestart; 0 = mid-run default)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}
	mode, err := audit.ParseMode(*auditMode)
	if err != nil {
		fmt.Fprintf(os.Stderr, "medea-sim: %v\n", err)
		os.Exit(2)
	}
	o := experiments.Options{
		Seed: *seed, Scale: *scale, SolverBudget: *budget, Audit: mode,
		JournalDir: *journalDir, CrashAt: *crashAt,
	}

	runners := map[string]func(experiments.Options) []*metrics.Table{
		"fig1":         single(experiments.RunFig1),
		"fig2a":        single(experiments.RunFig2a),
		"fig2b":        single(experiments.RunFig2b),
		"fig2c":        single(experiments.RunFig2c),
		"fig2d":        single(experiments.RunFig2d),
		"fig3":         single(experiments.RunFig3),
		"table1":       single(experiments.RunTable1),
		"fig7":         func(o experiments.Options) []*metrics.Table { return experiments.RunFig7(o).Tables() },
		"fig8":         single(experiments.RunFig8),
		"fig8live":     single(experiments.RunFig8Live),
		"fig9a":        single(experiments.RunFig9a),
		"fig9b":        single(experiments.RunFig9b),
		"fig9c":        single(experiments.RunFig9c),
		"fig9d":        single(experiments.RunFig9d),
		"fig10":        func(o experiments.Options) []*metrics.Table { return experiments.RunFig10(o).Tables() },
		"fig11a":       single(experiments.RunFig11a),
		"fig11b":       single(experiments.RunFig11b),
		"fig11c":       single(experiments.RunFig11c),
		"hardening":    single(experiments.RunHardening),
		"crashrestart": single(experiments.RunCrashRestart),
	}

	names := flag.Args()
	if len(names) == 1 && names[0] == "all" {
		names = names[:0]
		for n := range runners {
			names = append(names, n)
		}
		sort.Strings(names)
	}
	for _, name := range names {
		run, ok := runners[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "medea-sim: unknown experiment %q\n", name)
			usage()
			os.Exit(2)
		}
		start := time.Now()
		for _, tab := range run(o) {
			fmt.Println(tab)
		}
		fmt.Printf("[%s completed in %s]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}

func single(f func(experiments.Options) *metrics.Table) func(experiments.Options) []*metrics.Table {
	return func(o experiments.Options) []*metrics.Table { return []*metrics.Table{f(o)} }
}

func usage() {
	fmt.Fprintf(os.Stderr, `medea-sim regenerates the Medea paper's tables and figures.

usage: medea-sim [-seed N] [-scale F] [-budget D] [-audit MODE] <experiment>...

experiments:
  fig1    machines used for LRAs across clusters
  fig2a   Memcached latency under affinity constraints
  fig2b   HBase YCSB throughput under anti-affinity (± cgroups)
  fig2c   HBase runtime vs cardinality cap
  fig2d   TensorFlow runtime vs cardinality cap
  fig3    service-unit unavailability trace
  table1  scheduler feature matrix
  fig7    application performance box plots (4 tables)
  fig8    resilience: max container unavailability CDF
  fig8live live recovery under replayed SU churn (MTTR, degraded time)
  fig9a   violations vs LRA utilization
  fig9b   violations vs task-based utilization
  fig9c   violations vs periodicity
  fig9d   violations vs constraint complexity
  fig10   fragmentation and load balance (2 tables)
  fig11a  LRA scheduling latency vs cluster size
  fig11b  two-scheduler benefit (MEDEA vs ILP-ALL)
  fig11c  task scheduling latency under Google-trace replay
  hardening pipeline defenses under a byzantine algorithm (breaker on/off)
  crashrestart journaled scheduler killed mid-run, recovered, resumed
  all     everything above

flags:
`)
	flag.PrintDefaults()
}
