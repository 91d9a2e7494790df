package main

import (
	"fmt"
	"math/rand"
	"time"

	"medea/internal/chaos"
	"medea/internal/core"
	"medea/internal/federation"
	"medea/internal/metrics"
	"medea/internal/resource"
	"medea/internal/server"
	"medea/internal/workload"
)

// scenarioConfig is the scenario's input: the command's flags except
// -out, -gate, -maxp99 and -max-mig-p99. MaxMTTR also bounds how long the
// MTTR poll waits.
type scenarioConfig struct {
	Members     int
	Nodes       int
	Jobs        int
	Overload    float64
	Seed        int64
	Rate        float64 // per-member global submit budget (req/s)
	MaxMTTR     time.Duration
	JournalRoot string
	Logf        func(format string, args ...any)
}

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

// outcome is a scenario's report plus the verdicts the gate reads that
// the report does not carry.
type outcome struct {
	rep  fedReport
	mttr time.Duration
	// slowDead: the slow-but-alive member's verdict was Dead at the end.
	slowDead bool
}

// probeEvery is the fleet's round cadence in simulated time: one
// Fleet.Step per probe interval.
const probeEvery = 25 * time.Millisecond

// driver owns the scenario's virtual clock. Every fleet round, chaos
// event and submission runs on it, in order, so a run is a function of
// its configuration.
type driver struct {
	fleet   *federation.Fleet
	now     time.Time
	next    time.Time // the next fleet round
	routeMs []float64 // wall time of each successful Submit
	// trickle, while set, submits one phase-2 app every 250ms.
	trickle  bool
	nextLoad time.Time
	loadSeq  int
}

func (d *driver) clock() time.Time { return d.now }

// advance moves the clock forward by dt, running one fleet round at
// every probe interval it passes and the trickle's submissions when due.
func (d *driver) advance(dt time.Duration) {
	until := d.now.Add(dt)
	for !d.next.After(until) {
		d.now = d.next
		d.fleet.Step(d.now)
		d.next = d.next.Add(probeEvery)
		for d.trickle && !d.nextLoad.After(d.now) {
			d.submit(&server.SubmitRequest{
				ID:     fmt.Sprintf("phase2-%03d", d.loadSeq),
				Groups: []server.GroupSpec{{Name: "w", Count: 2, MemoryMB: 512, VCores: 1}},
			})
			d.loadSeq++
			d.nextLoad = d.nextLoad.Add(250 * time.Millisecond)
		}
	}
	d.now = until
}

// submit routes one app and records its wall-clock route latency.
func (d *driver) submit(req *server.SubmitRequest) {
	start := time.Now()
	if _, err := d.fleet.Balancer.Submit(req); err == nil {
		d.routeMs = append(d.routeMs, float64(time.Since(start))/float64(time.Millisecond))
	}
}

// runScenario drives a simulated federation through the overload run with
// scripted chaos and then the planned operations, all on a virtual clock
// stepped at probeEvery. Only the route latencies and WallSeconds read
// the wall clock; every other duration in the report is simulated.
func runScenario(cfg scenarioConfig) (outcome, error) {
	wallStart := time.Now()
	d := &driver{now: time.Unix(0, 0).UTC()}
	d.next = d.now.Add(probeEvery)
	fleet, err := federation.NewFleet(federation.FleetConfig{
		Members:        cfg.Members,
		NodesPerMember: cfg.Nodes,
		NodeCapacity:   resource.New(16384, 16),
		Core:           core.Config{Interval: 25 * time.Millisecond, CheckpointEvery: 64},
		Server: server.Config{
			QueueCap:  512,
			RateLimit: server.RateLimitConfig{GlobalRate: cfg.Rate, Burst: 16},
		},
		JournalRoot: cfg.JournalRoot,
		Scout:       federation.ScoutConfig{ProbeTimeout: 15 * time.Millisecond},
		Route: federation.RouteConfig{
			AttemptTimeout: 100 * time.Millisecond,
			MaxRounds:      3,
			Sleep:          func(time.Duration) {},
			Clock:          d.clock,
		},
		Clock: d.clock,
		Logf:  cfg.Logf,
	})
	if err != nil {
		return outcome{}, fmt.Errorf("fleet: %w", err)
	}
	defer fleet.Close()
	d.fleet = fleet
	start := d.now

	// Scripted chaos, driven by simulated time relative to the load start:
	// the last member turns Byzantine-slow immediately (every 2nd request
	// stalls past the probe timeout — the detector must only ever suspect
	// it), and the first member is crashed halfway through the run.
	killed := "cluster-0"
	slow := fmt.Sprintf("cluster-%d", cfg.Members-1)
	halfway := time.Duration(float64(cfg.Jobs) / 2 * 50 / cfg.Overload * float64(time.Millisecond))
	script := chaos.NewFleetScript(
		chaos.FleetEvent{After: 0, Kind: chaos.FleetSlow, Member: slow, Delay: 45 * time.Millisecond, Every: 2},
		chaos.FleetEvent{After: halfway, Kind: chaos.FleetCrash, Member: killed},
	)

	trace := workload.GoogleTrace(rand.New(rand.NewSource(cfg.Seed)), workload.GoogleTraceConfig{
		Jobs:             cfg.Jobs,
		MeanInterarrival: 50 * time.Millisecond,
		MeanTasksPerJob:  8,
		MeanDuration:     3 * time.Second,
	})

	var killTime time.Time
	prev := time.Duration(0)
	for _, tt := range trace {
		d.advance(time.Duration(float64(tt.Arrival-prev) / cfg.Overload))
		prev = tt.Arrival
		elapsed := d.now.Sub(start)
		if n, err := script.ApplyDue(fleet, elapsed); err != nil {
			return outcome{}, fmt.Errorf("chaos script: %w", err)
		} else if n > 0 && killTime.IsZero() && elapsed >= halfway {
			killTime = d.now
			cfg.Logf("killed %s at %v into the run", killed, elapsed.Round(time.Millisecond))
		}
		d.submit(&server.SubmitRequest{
			ID:     tt.Job,
			Groups: []server.GroupSpec{{Name: "w", Count: min(tt.Req.Count, 4), MemoryMB: 512, VCores: 1}},
		})
	}
	if _, err := script.ApplyDue(fleet, d.now.Sub(start)); err != nil {
		return outcome{}, fmt.Errorf("chaos script: %w", err)
	}
	if killTime.IsZero() {
		killTime = d.now // crash fired on the post-loop ApplyDue
		cfg.Logf("killed %s after the arrival loop", killed)
	}

	// MTTR: poll the fleet-wide audit every round until no app is lost or
	// still homed on the corpse (degraded is an honest terminal state,
	// counted but not waited for). Detection alone is the scout confirming
	// death.
	var detection, mttr time.Duration
	for d.now.Sub(killTime) < cfg.MaxMTTR+5*time.Second {
		d.advance(probeEvery)
		if detection == 0 && fleet.Scout.State(killed, d.now) == federation.Dead {
			detection = d.now.Sub(killTime)
		}
		a := fleet.Balancer.Audit(d.now)
		if detection > 0 && a.OnDead == 0 && len(a.Lost) == 0 {
			mttr = d.now.Sub(killTime)
			break
		}
	}
	// Let in-flight placements settle before the planned-operations phase.
	d.advance(10 * probeEvery)

	// Phase 2: planned operations under load. Revive the corpse so the
	// fleet is whole, keep a trickle of fresh submissions arriving, then
	// drain one member (cordon + evacuate) and roll the entire fleet.
	if !fleet.RestartMember(killed) {
		return outcome{}, fmt.Errorf("could not restart %s from its journal", killed)
	}
	d.advance(20 * probeEvery) // scout re-confirms it alive
	d.trickle, d.nextLoad = true, d.now.Add(250*time.Millisecond)

	drained := fmt.Sprintf("cluster-%d", 1%cfg.Members)
	var drainSecs float64
	drainStart := d.now
	if err := fleet.Balancer.DrainMember(drained); err != nil {
		cfg.Logf("drain %s: %v", drained, err)
	} else {
		for fleet.Balancer.DrainActive(drained) && d.now.Sub(drainStart) < 30*time.Second {
			d.advance(probeEvery)
		}
		if !fleet.Balancer.DrainActive(drained) {
			drainSecs = d.now.Sub(drainStart).Seconds()
			cfg.Logf("drained %s in %.2fs", drained, drainSecs)
		} else {
			cfg.Logf("drain of %s did not finish in 30s", drained)
		}
		fleet.Balancer.CancelDrain(drained) // lift the cordon for the roll
	}

	// Rolling restart duration scales with the deployed population (every
	// member is evacuated in turn), so its budget is generous.
	var rollSecs float64
	rollStart := d.now
	if fleet.StartRollingRestart() {
		for fleet.RollingActive() && d.now.Sub(rollStart) < 150*time.Second {
			d.advance(probeEvery)
		}
		if !fleet.RollingActive() {
			rollSecs = d.now.Sub(rollStart).Seconds()
			cfg.Logf("rolling restart of %d members in %.2fs", cfg.Members, rollSecs)
		} else {
			cfg.Logf("rolling restart did not finish in 150s")
		}
	}
	d.trickle = false

	alive := 0
	for _, m := range fleet.Members {
		if !m.Gate.Crashed() && fleet.Scout.State(m.ID, d.now) != federation.Dead {
			alive++
		}
	}
	var migMs []float64
	for _, dur := range fleet.Balancer.MigrationDurations() {
		migMs = append(migMs, float64(dur)/float64(time.Millisecond))
	}

	// Settle: poll until the audit accounts for every routed app (no one
	// still reconciling or mid-migration), so the accounting gate judges
	// a quiesced fleet rather than a snapshot of work in flight.
	finalAudit := fleet.Balancer.Audit(d.now)
	settleStart := d.now
	for d.now.Sub(settleStart) < 10*time.Second {
		if finalAudit.Placed+finalAudit.Degraded+finalAudit.Rejected == finalAudit.Routed {
			break
		}
		d.advance(5 * probeEvery)
		finalAudit = fleet.Balancer.Audit(d.now)
	}

	st := fleet.Stats
	rep := fedReport{
		Benchmark: "federation-chaos",
		Members:   cfg.Members, Jobs: cfg.Jobs, Overload: cfg.Overload, Seed: cfg.Seed,
		Routed:            st.Routed(),
		RouteFailures:     st.Get(metrics.RouteFailures),
		Spillovers:        st.Spillovers(),
		P50RouteMs:        metrics.Percentile(d.routeMs, 50),
		P99RouteMs:        metrics.Percentile(d.routeMs, 99),
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
		WallSeconds:   time.Since(wallStart).Seconds(),
	}
	if rep.Routed > 0 {
		rep.SpilloverRate = float64(rep.Spillovers) / float64(rep.Routed)
	}
	return outcome{
		rep:      rep,
		mttr:     mttr,
		slowDead: fleet.Scout.State(slow, d.now) == federation.Dead,
	}, nil
}
