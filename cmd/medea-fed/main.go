// Command medea-fed drives a simulated federation — N member clusters,
// each a full journaled scheduler behind its serving API, fronted by the
// scout/balancer layer — through an overload run with scripted
// cluster-level chaos: one member is killed mid-load and another answers
// every second request too slowly (Byzantine slow-but-alive). It records
// routing latency percentiles, the spillover rate, and the failover MTTR
// (kill to clean fleet-wide audit), and with -gate enforces the
// robustness contract: zero acknowledged submissions lost, failover
// within -max-mttr, and the slow member never confirmed dead.
//
// A second phase then exercises the planned-operations path while fresh
// submissions keep arriving: the killed member is restarted, one member
// is drained (cordon plus two-phase evacuation of everything it holds),
// and finally the whole fleet is rolled one member at a time. The gate
// extends to: the drain and the rolling restart complete, every member
// is alive afterwards, and the two-phase migration p99 stays under
// -max-mig-p99.
//
// Usage:
//
//	medea-fed [-members N] [-jobs N] [-overload F] [-out BENCH_fed.json] [-gate]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sync"
	"time"

	"medea/internal/chaos"
	"medea/internal/core"
	"medea/internal/federation"
	"medea/internal/metrics"
	"medea/internal/resource"
	"medea/internal/server"
	"medea/internal/workload"
)

type fedReport struct {
	Benchmark string  `json:"benchmark"`
	Members   int     `json:"members"`
	Jobs      int     `json:"jobs"`
	Overload  float64 `json:"overload"`
	Seed      int64   `json:"seed"`

	Routed        int     `json:"routed"`
	RouteFailures int     `json:"route_failures"`
	Spillovers    int     `json:"spillovers"`
	SpilloverRate float64 `json:"spillover_rate"`

	P50RouteMs float64 `json:"p50_route_ms"`
	P99RouteMs float64 `json:"p99_route_ms"`

	KilledMember     string  `json:"killed_member"`
	SlowMember       string  `json:"slow_member"`
	DetectionSeconds float64 `json:"detection_seconds"`
	MTTRSeconds      float64 `json:"mttr_seconds"`
	DeadConfirms     int     `json:"dead_confirms"`

	FailoverReplaced  int `json:"failover_replaced"`
	DegradedQueued    int `json:"degraded_queued"`
	DegradedRecovered int `json:"degraded_recovered"`

	DrainedMember       string  `json:"drained_member"`
	DrainSeconds        float64 `json:"drain_seconds"`
	RollingSeconds      float64 `json:"rolling_seconds"`
	MembersAliveAfter   int     `json:"members_alive_after"`
	MigrationsCompleted int     `json:"migrations_completed"`
	MigrationsAborted   int     `json:"migrations_aborted"`
	MigrationP99Ms      float64 `json:"migration_p99_ms"`

	AuditPlaced   int      `json:"audit_placed"`
	AuditDegraded int      `json:"audit_degraded"`
	AuditRejected int      `json:"audit_rejected"`
	AuditLost     []string `json:"audit_lost"`

	WallSeconds float64 `json:"wall_seconds"`
}

func main() {
	members := flag.Int("members", 3, "member clusters in the federation")
	nodes := flag.Int("nodes", 16, "nodes per member cluster")
	jobs := flag.Int("jobs", 120, "trace jobs to route")
	overload := flag.Float64("overload", 4, "overload factor: divide trace inter-arrival time by this")
	seed := flag.Int64("seed", 42, "random seed for the arrival process")
	rate := flag.Float64("rate", 60, "per-member global submit budget (req/s); drives spillover")
	out := flag.String("out", "", "write the JSON report to this file")
	gate := flag.Bool("gate", false, "fail unless zero loss, MTTR and detector guarantees held")
	maxP99 := flag.Duration("maxp99", 250*time.Millisecond, "gate: max p99 routing latency")
	maxMTTR := flag.Duration("max-mttr", 5*time.Second, "gate: max kill-to-clean-audit time")
	maxMigP99 := flag.Duration("max-mig-p99", 2*time.Second, "gate: max p99 two-phase migration duration")
	syncEvery := flag.Int("sync-every", 0, "journal fsync policy for -journal-root members")
	journalRoot := flag.String("journal-root", "", "file-backed member journals under this dir (default in-memory)")
	flag.Parse()
	log.SetPrefix("medea-fed: ")
	log.SetFlags(0)

	const probeEvery = 25 * time.Millisecond
	fleet, err := federation.NewFleet(federation.FleetConfig{
		Members:        *members,
		NodesPerMember: *nodes,
		NodeCapacity:   resource.New(16384, 16),
		Core:           core.Config{Interval: 25 * time.Millisecond, CheckpointEvery: 64},
		Server: server.Config{
			PollEvery: 10 * time.Millisecond,
			QueueCap:  512,
			RateLimit: server.RateLimitConfig{GlobalRate: *rate, Burst: 16},
		},
		JournalRoot: *journalRoot,
		SyncEvery:   *syncEvery,
		Scout: federation.ScoutConfig{
			ProbeInterval: probeEvery,
			ProbeTimeout:  15 * time.Millisecond,
		},
		Route: federation.RouteConfig{
			AttemptTimeout: 100 * time.Millisecond,
			MaxRounds:      3,
		},
		Logf: log.Printf,
	})
	if err != nil {
		log.Fatalf("fleet: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fleet.Start(ctx)
	defer fleet.Close()

	// Scripted chaos, driven by wall time relative to the load start:
	// the last member turns Byzantine-slow immediately (every 2nd request
	// stalls past the probe timeout — the detector must only ever suspect
	// it), and the first member is crashed halfway through the run.
	killed := "cluster-0"
	slow := fmt.Sprintf("cluster-%d", *members-1)
	halfway := time.Duration(float64(*jobs) / 2 * 50 / *overload * float64(time.Millisecond))
	script := chaos.NewFleetScript(
		chaos.FleetEvent{After: 0, Kind: chaos.FleetSlow, Member: slow, Delay: 45 * time.Millisecond, Every: 2},
		chaos.FleetEvent{After: halfway, Kind: chaos.FleetCrash, Member: killed},
	)

	trace := workload.GoogleTrace(rand.New(rand.NewSource(*seed)), workload.GoogleTraceConfig{
		Jobs:             *jobs,
		MeanInterarrival: 50 * time.Millisecond,
		MeanTasksPerJob:  8,
		MeanDuration:     3 * time.Second,
	})

	var (
		mu       sync.Mutex
		routeMs  []float64
		killTime time.Time
		wg       sync.WaitGroup
	)
	wallStart := time.Now()
	prev := time.Duration(0)
	for _, tt := range trace {
		gap := time.Duration(float64(tt.Arrival-prev) / *overload)
		prev = tt.Arrival
		if gap > 0 {
			time.Sleep(gap)
		}
		elapsed := time.Since(wallStart)
		if n, err := script.ApplyDue(fleet, elapsed); err != nil {
			log.Fatalf("chaos script: %v", err)
		} else if n > 0 && killTime.IsZero() && elapsed >= halfway {
			killTime = time.Now()
			log.Printf("killed %s at %v into the run", killed, elapsed.Round(time.Millisecond))
		}
		count := tt.Req.Count
		if count > 4 {
			count = 4
		}
		req := &server.SubmitRequest{
			ID:     tt.Job,
			Groups: []server.GroupSpec{{Name: "w", Count: count, MemoryMB: 512, VCores: 1}},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			_, err := fleet.Balancer.Submit(req)
			lat := time.Since(start)
			mu.Lock()
			if err == nil {
				routeMs = append(routeMs, float64(lat)/float64(time.Millisecond))
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if _, err := script.ApplyDue(fleet, time.Since(wallStart)); err != nil {
		log.Fatalf("chaos script: %v", err)
	}
	if killTime.IsZero() {
		killTime = time.Now() // crash fired on the post-loop ApplyDue
		log.Printf("killed %s after the arrival loop", killed)
	}

	// MTTR: poll the fleet-wide audit until no app is lost or still homed
	// on the corpse (degraded is an honest terminal state, counted but
	// not waited for). Detection alone is the scout confirming death.
	var detection, mttr time.Duration
	deadline := killTime.Add(*maxMTTR + 5*time.Second)
	for time.Now().Before(deadline) {
		now := time.Now()
		if detection == 0 && fleet.Scout.State(killed, now) == federation.Dead {
			detection = now.Sub(killTime)
		}
		a := fleet.Balancer.Audit(now)
		if detection > 0 && a.OnDead == 0 && len(a.Lost) == 0 {
			mttr = time.Since(killTime)
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Let in-flight placements settle before the planned-operations phase.
	time.Sleep(10 * probeEvery)

	// Phase 2: planned operations under load. Revive the corpse so the
	// fleet is whole, keep a trickle of fresh submissions arriving, then
	// drain one member (cordon + evacuate) and roll the entire fleet.
	if !fleet.RestartMember(killed) {
		log.Fatalf("could not restart %s from its journal", killed)
	}
	time.Sleep(20 * probeEvery) // scout re-confirms it alive
	stopLoad := make(chan struct{})
	var loadWG sync.WaitGroup
	loadWG.Add(1)
	go func() {
		defer loadWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stopLoad:
				return
			case <-time.After(250 * time.Millisecond):
			}
			req := &server.SubmitRequest{
				ID:     fmt.Sprintf("phase2-%03d", i),
				Groups: []server.GroupSpec{{Name: "w", Count: 2, MemoryMB: 512, VCores: 1}},
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				start := time.Now()
				_, err := fleet.Balancer.Submit(req)
				lat := time.Since(start)
				mu.Lock()
				if err == nil {
					routeMs = append(routeMs, float64(lat)/float64(time.Millisecond))
				}
				mu.Unlock()
			}()
		}
	}()

	drained := fmt.Sprintf("cluster-%d", 1%*members)
	var drainSecs float64
	drainStart := time.Now()
	if err := fleet.Balancer.DrainMember(drained); err != nil {
		log.Printf("drain %s: %v", drained, err)
	} else {
		for fleet.Balancer.DrainActive(drained) && time.Since(drainStart) < 30*time.Second {
			time.Sleep(20 * time.Millisecond)
		}
		if !fleet.Balancer.DrainActive(drained) {
			drainSecs = time.Since(drainStart).Seconds()
			log.Printf("drained %s in %.2fs", drained, drainSecs)
		} else {
			log.Printf("drain of %s did not finish in 30s", drained)
		}
		fleet.Balancer.CancelDrain(drained) // lift the cordon for the roll
	}

	// Rolling restart duration scales with the deployed population (every
	// member is evacuated in turn), so its budget is generous.
	var rollSecs float64
	rollStart := time.Now()
	if fleet.StartRollingRestart() {
		for fleet.RollingActive() && time.Since(rollStart) < 150*time.Second {
			time.Sleep(20 * time.Millisecond)
		}
		if !fleet.RollingActive() {
			rollSecs = time.Since(rollStart).Seconds()
			log.Printf("rolling restart of %d members in %.2fs", *members, rollSecs)
		} else {
			log.Printf("rolling restart did not finish in 150s")
		}
	}
	close(stopLoad)
	loadWG.Wait()
	wg.Wait()

	alive := 0
	for _, m := range fleet.Members {
		if !m.Gate.Crashed() && fleet.Scout.State(m.ID, time.Now()) != federation.Dead {
			alive++
		}
	}
	var migMs []float64
	for _, d := range fleet.Balancer.MigrationDurations() {
		migMs = append(migMs, float64(d)/float64(time.Millisecond))
	}

	// Settle: poll until the audit accounts for every routed app (no one
	// still reconciling or mid-migration), so the accounting gate judges
	// a quiesced fleet rather than a snapshot of work in flight.
	finalAudit := fleet.Balancer.Audit(time.Now())
	settleDeadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(settleDeadline) {
		if finalAudit.Placed+finalAudit.Degraded+finalAudit.Rejected == finalAudit.Routed {
			break
		}
		time.Sleep(5 * probeEvery)
		finalAudit = fleet.Balancer.Audit(time.Now())
	}
	wall := time.Since(wallStart)
	cancel()

	st := fleet.Stats
	rep := fedReport{
		Benchmark: "federation-chaos",
		Members:   *members, Jobs: *jobs, Overload: *overload, Seed: *seed,
		Routed:            st.Routed(),
		RouteFailures:     st.Get(metrics.RouteFailures),
		Spillovers:        st.Spillovers(),
		P50RouteMs:        metrics.Percentile(routeMs, 50),
		P99RouteMs:        metrics.Percentile(routeMs, 99),
		KilledMember:      killed,
		SlowMember:        slow,
		DetectionSeconds:  detection.Seconds(),
		MTTRSeconds:       mttr.Seconds(),
		DeadConfirms:      st.Get(metrics.DeadConfirms),
		FailoverReplaced:  st.Get(metrics.FailoverReplaced),
		DegradedQueued:    st.Get(metrics.DegradedQueued),
		DegradedRecovered: st.Get(metrics.DegradedRecovered),

		DrainedMember:       drained,
		DrainSeconds:        drainSecs,
		RollingSeconds:      rollSecs,
		MembersAliveAfter:   alive,
		MigrationsCompleted: st.Get(metrics.MigrationsCompleted),
		MigrationsAborted:   st.Get(metrics.MigrationsAborted),
		MigrationP99Ms:      metrics.Percentile(migMs, 99),

		AuditPlaced:   finalAudit.Placed,
		AuditDegraded: finalAudit.Degraded,
		AuditRejected: finalAudit.Rejected,
		AuditLost:     append([]string{}, finalAudit.Lost...),
		WallSeconds:   wall.Seconds(),
	}
	if rep.Routed > 0 {
		rep.SpilloverRate = float64(rep.Spillovers) / float64(rep.Routed)
	}

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
		check(mttr > 0 && mttr <= *maxMTTR,
			"failover MTTR %.3fs <= %s", rep.MTTRSeconds, *maxMTTR)
		check(rep.DeadConfirms == 1,
			"exactly the killed member confirmed dead (confirms %d)", rep.DeadConfirms)
		check(fleet.Scout.State(slow, time.Now()) != federation.Dead,
			"slow-but-alive member %s never confirmed dead", slow)
		check(rep.P99RouteMs <= float64(*maxP99)/float64(time.Millisecond),
			"p99 routing latency %.2fms <= %s", rep.P99RouteMs, *maxP99)
		check(rep.DrainSeconds > 0,
			"planned drain of %s completed (%.2fs)", rep.DrainedMember, rep.DrainSeconds)
		check(rep.RollingSeconds > 0,
			"rolling restart completed (%.2fs)", rep.RollingSeconds)
		check(rep.MembersAliveAfter == *members,
			"all %d members alive after the roll (alive %d)", *members, rep.MembersAliveAfter)
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
