// Command medea-fed drives a simulated federation — N member clusters,
// each a full journaled scheduler behind its serving API, fronted by the
// scout/balancer layer — through an overload run with cluster-level
// chaos applied to the members' fault Gates: one member is killed
// mid-load and another answers every second request too slowly
// (Byzantine slow-but-alive). It records routing latency percentiles,
// the spillover rate, and the failover MTTR (kill to clean fleet-wide
// audit), and with -gate enforces the robustness contract: zero
// acknowledged submissions lost, failover within -max-mttr, and the slow
// member never confirmed dead.
//
// A second phase then exercises the planned-operations path while fresh
// submissions keep arriving: the killed member is restarted, one member
// is drained (cordon plus two-phase evacuation of everything it holds),
// and finally the whole fleet is rolled one member at a time. The gate
// extends to: the drain and the rolling restart complete, every member
// is alive afterwards, and the two-phase migration p99 stays under
// -max-mig-p99.
//
// The whole scenario runs on a virtual clock: one fleet round
// (federation.Fleet.Step) per 25ms probe interval, with the trace
// arrivals, the Gate faults and every submission applied in order
// between rounds. A run is a function of its flags. Every duration in the
// report is simulated time except the route latencies (the wall time of
// each in-process Submit) and wall_seconds.
//
// Usage:
//
//	medea-fed [-members N] [-jobs N] [-overload F] [-out BENCH_fed.json] [-gate]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"
)

func main() {
	cfg := scenarioConfig{Logf: log.Printf}
	flag.IntVar(&cfg.Members, "members", 3, "member clusters in the federation")
	flag.IntVar(&cfg.Nodes, "nodes", 16, "nodes per member cluster")
	flag.IntVar(&cfg.Jobs, "jobs", 120, "trace jobs to route")
	flag.Float64Var(&cfg.Overload, "overload", 4, "overload factor: divide trace inter-arrival time by this")
	flag.Int64Var(&cfg.Seed, "seed", 42, "random seed for the arrival process")
	flag.Float64Var(&cfg.Rate, "rate", 60, "per-member global submit budget (req/s); drives spillover")
	out := flag.String("out", "", "write the JSON report to this file")
	gate := flag.Bool("gate", false, "fail unless zero loss, MTTR and detector guarantees held")
	maxP99 := flag.Duration("maxp99", 250*time.Millisecond, "gate: max p99 routing latency")
	flag.DurationVar(&cfg.MaxMTTR, "max-mttr", 5*time.Second, "gate: max kill-to-clean-audit time")
	maxMigP99 := flag.Duration("max-mig-p99", 2*time.Second, "gate: max p99 two-phase migration duration")
	flag.StringVar(&cfg.JournalRoot, "journal-root", "", "file-backed member journals under this dir (default in-memory)")
	flag.Parse()
	log.SetPrefix("medea-fed: ")
	log.SetFlags(0)

	o, err := runScenario(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rep := o.rep

	enc, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Println(string(enc))
	if *out != "" {
		if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
			log.Fatalf("writing %s: %v", *out, err)
		}
		log.Printf("wrote %s", *out)
	}

	if *gate {
		fail := false
		check := func(ok bool, format string, args ...any) {
			status := "ok  "
			if !ok {
				status = "FAIL"
				fail = true
			}
			log.Printf("gate %s %s", status, fmt.Sprintf(format, args...))
		}
		check(len(rep.AuditLost) == 0,
			"zero acknowledged submissions lost (lost %d)", len(rep.AuditLost))
		check(o.mttr > 0 && o.mttr <= cfg.MaxMTTR,
			"failover MTTR %.3fs <= %s", rep.MTTRSeconds, cfg.MaxMTTR)
		check(rep.DeadConfirms == 1,
			"exactly the killed member confirmed dead (confirms %d)", rep.DeadConfirms)
		check(!o.slowDead,
			"slow-but-alive member %s never confirmed dead", rep.SlowMember)
		check(rep.P99RouteMs <= float64(*maxP99)/float64(time.Millisecond),
			"p99 routing latency %.2fms <= %s", rep.P99RouteMs, *maxP99)
		check(rep.DrainSeconds > 0,
			"planned drain of %s completed (%.2fs)", rep.DrainedMember, rep.DrainSeconds)
		check(rep.RollingSeconds > 0,
			"rolling restart completed (%.2fs)", rep.RollingSeconds)
		check(rep.MembersAliveAfter == cfg.Members,
			"all %d members alive after the roll (alive %d)", cfg.Members, rep.MembersAliveAfter)
		check(rep.MigrationsCompleted > 0,
			"two-phase migrations ran (%d completed, %d aborted)",
			rep.MigrationsCompleted, rep.MigrationsAborted)
		check(rep.MigrationP99Ms <= float64(*maxMigP99)/float64(time.Millisecond),
			"migration p99 %.2fms <= %s", rep.MigrationP99Ms, *maxMigP99)
		check(rep.Routed > 0 && rep.AuditPlaced+rep.AuditDegraded+rep.AuditRejected == rep.Routed,
			"audit accounts for every routed app (%d placed + %d degraded + %d rejected of %d)",
			rep.AuditPlaced, rep.AuditDegraded, rep.AuditRejected, rep.Routed)
		if fail {
			os.Exit(1)
		}
	}
}
