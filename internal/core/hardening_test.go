package core

import (
	"fmt"
	"testing"
	"time"

	"medea/internal/audit"
	"medea/internal/chaos"
	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/journal"
	"medea/internal/lra"
	"medea/internal/metrics"
	"medea/internal/resource"
)

// hardApp builds a 2-container app with a hard (weight >= 100)
// anti-affinity between its own containers per node, so any pile-on
// placement is inadmissible. The constraint is scoped to the app's
// automatic appID tag — a shared tag would bind across apps and make
// honest placements infeasible once every node hosts one container.
func hardApp(i int) *lra.Application {
	id := fmt.Sprintf("app-%03d", i)
	self := constraint.E(constraint.AppIDTag(id))
	return &lra.Application{
		ID: id,
		Groups: []lra.ContainerGroup{{
			Name: "g", Count: 2, Demand: resource.New(100, 1), Tags: []constraint.Tag{"svc"},
		}},
		Constraints: []constraint.Constraint{
			constraint.Weighted(constraint.AntiAffinity(self, self, constraint.Node),
				audit.DefaultHardWeight),
		},
	}
}

// TestByzantineAlgorithm drives the full hardening pipeline with a
// fault-injecting algorithm: panics, over-capacity / constraint-violating
// / duplicate-ID / down-node placements, truncated result batches and
// solver-budget exhaustion. The scheduler must never crash, never commit
// an invalid assignment (audit.FailFast panics the test if it does), trip
// the breaker onto the heuristic ladder, and — once the faults stop —
// restore the configured algorithm via a half-open probe.
func TestByzantineAlgorithm(t *testing.T) {
	c := cluster.Grid(6, 3, resource.New(10000, 100))
	byz := &chaos.Byzantine{Inner: lra.NewNodeCandidates(), Every: 1}
	m := New(c, byz, Config{
		Interval:         time.Second,
		MaxRetries:       50,
		Audit:            audit.FailFast,
		BreakerThreshold: 2,
		BreakerCooldown:  2,
	})

	now := time.Unix(0, 0)
	// One node is down so the down-node fault has a target.
	m.FailNode(5, now)

	sawDegraded := false
	runCycle := func(i int) CycleStats {
		if err := m.SubmitLRA(hardApp(i), now); err != nil {
			t.Fatalf("cycle %d: submit: %v", i, err)
		}
		now = now.Add(time.Second)
		stats := m.RunCycle(now)
		if stats.Level > 0 {
			sawDegraded = true
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: invariants: %v", i, err)
		}
		return stats
	}

	// Phase 1: every call misbehaves. The breaker must trip within the
	// first few cycles and keep scheduling on the heuristic ladder.
	for i := 0; i < 20; i++ {
		runCycle(i)
	}
	if m.Pipeline.Get(metrics.BreakerTrips) == 0 {
		t.Fatal("breaker never tripped")
	}
	if !sawDegraded || m.Pipeline.Get(metrics.DegradedCycles) == 0 {
		t.Fatal("no cycle ran on the degradation ladder")
	}
	if m.Pipeline.Get(metrics.PanicsRecovered) == 0 {
		t.Fatal("no panic was recovered")
	}
	if m.Pipeline.Get(metrics.ValidationRejects) == 0 {
		t.Fatal("no placement was rejected by commit-time validation")
	}
	if m.Pipeline.Get(metrics.SolverExhaustions) == 0 {
		t.Fatalf("exhaustion fault never surfaced: injected %d faults", byz.Injected)
	}
	if m.Pipeline.Get(metrics.BreakerReopens) == 0 {
		t.Fatal("half-open probes never failed while the algorithm was still broken")
	}
	// Degraded cycles still make progress: the heuristic rungs place the
	// (valid) requeued apps.
	placedDuringChaos := len(m.deployed)
	if placedDuringChaos == 0 {
		t.Fatal("no LRA was placed while degraded — ladder is not scheduling")
	}

	// Phase 2: the algorithm heals. The next half-open probe must succeed
	// and restore the configured algorithm (breaker reset).
	byz.Every = 0
	var last CycleStats
	for i := 20; i < 35; i++ {
		last = runCycle(i)
		if m.Pipeline.Get(metrics.BreakerResets) > 0 && last.Level == 0 {
			break
		}
	}
	if m.Pipeline.Get(metrics.BreakerResets) == 0 {
		t.Fatal("breaker never reset after the algorithm healed")
	}
	if last.Level != 0 {
		t.Fatalf("last cycle still degraded (level %d)", last.Level)
	}
	if last.Algorithm != byz.Name() {
		t.Fatalf("last cycle ran %q, want restored %q", last.Algorithm, byz.Name())
	}
	if len(m.deployed) <= placedDuringChaos {
		t.Fatal("no LRA placed after recovery")
	}
}

// TestPanicIsolationPreservesRetries verifies a panicking algorithm
// requeues the batch without consuming the apps' conflict-retry budget.
func TestPanicIsolationPreservesRetries(t *testing.T) {
	c := cluster.Grid(4, 2, resource.New(1000, 10))
	byz := &chaos.Byzantine{Inner: lra.NewNodeCandidates(), Every: 1, Faults: []chaos.Fault{chaos.FaultPanic}}
	m := New(c, byz, Config{Interval: time.Second, MaxRetries: 1, BreakerThreshold: -1})

	now := time.Unix(0, 0)
	if err := m.SubmitLRA(hardApp(0), now); err != nil {
		t.Fatal(err)
	}
	// MaxRetries is 1, yet five panicking cycles must not reject the app.
	for i := 0; i < 5; i++ {
		now = now.Add(time.Second)
		stats := m.RunCycle(now)
		if !stats.PanicRecovered {
			t.Fatalf("cycle %d: panic not recovered", i)
		}
	}
	if len(m.Rejected) != 0 {
		t.Fatalf("panicking cycles consumed retry budget: rejected %v", m.Rejected)
	}
	if m.PendingLRAs() != 1 {
		t.Fatalf("app lost: pending=%d", m.PendingLRAs())
	}
	// Heal and confirm the app still lands.
	byz.Every = 0
	now = now.Add(time.Second)
	if stats := m.RunCycle(now); stats.Placed != 1 {
		t.Fatalf("healed cycle placed %d, want 1", stats.Placed)
	}
}

// TestBreakerDisabled verifies BreakerThreshold < 0 leaves the configured
// algorithm in charge no matter how often it fails.
func TestBreakerDisabled(t *testing.T) {
	c := cluster.Grid(4, 2, resource.New(1000, 10))
	byz := &chaos.Byzantine{Inner: lra.NewNodeCandidates(), Every: 2}
	m := New(c, byz, Config{Interval: time.Second, BreakerThreshold: -1})
	now := time.Unix(0, 0)
	for i := 0; i < 8; i++ {
		if err := m.SubmitLRA(hardApp(i), now); err != nil {
			t.Fatal(err)
		}
		now = now.Add(time.Second)
		if stats := m.RunCycle(now); stats.Level != 0 || stats.Algorithm != byz.Name() {
			t.Fatalf("cycle %d ran %q at level %d with the breaker disabled", i, stats.Algorithm, stats.Level)
		}
	}
	if m.Pipeline.Get(metrics.BreakerTrips) != 0 {
		t.Fatalf("disabled breaker tripped %d times", m.Pipeline.Get(metrics.BreakerTrips))
	}
}

// TestSolveCountersReachPipeline: the solve counters flow from the ILP
// scheduler through placeBatch, which sums a batch's components, into
// PipelineStats. The batch has two components. Medea-TP places the first
// without a violation, a decided fallback: its Place solves nothing. The
// second has an affinity to a tag no container carries, which no
// placement meets: its Place runs one warm-started solve and decodes the
// solver's placement, which does no better. Every ILP solve is exact, so
// ApproxSolves stays 0.
func TestSolveCountersReachPipeline(t *testing.T) {
	m := newMedea(lra.NewILP(), Config{Interval: time.Second})
	unmet := app("a2", 2, "st")
	unmet.Constraints = []constraint.Constraint{
		constraint.New(constraint.Affinity(constraint.E("st"), constraint.E("no-such-tag"), constraint.Node)),
	}
	for _, a := range []*lra.Application{app("a1", 4, "hb"), unmet} {
		if err := m.SubmitLRA(a, t0); err != nil {
			t.Fatal(err)
		}
	}
	if stats := m.RunCycle(t0.Add(time.Second)); stats.Placed != 2 {
		t.Fatalf("placed = %d", stats.Placed)
	}
	snap := m.Pipeline.Snapshot()
	for name, want := range map[string]int{
		"decided places": 1, "exact solves": 1, "warm-started solves": 1, "solver decodes": 1,
		"solver commits": 0, "approx solves": 0, "solver deadline hits": 0,
	} {
		if snap[name] != want {
			t.Errorf("%s = %d, want %d", name, snap[name], want)
		}
	}
}

// panicky wraps Medea-NC in an injector that panics on every call once
// Every is set to 1, and builds a scheduler over it.
func panicky(cfg Config) (*Medea, *chaos.Byzantine) {
	byz := &chaos.Byzantine{Inner: lra.NewNodeCandidates(), Faults: []chaos.Fault{chaos.FaultPanic}}
	return New(cluster.Grid(8, 4, resource.New(16384, 8)), byz, cfg), byz
}

// TestRepairRunsOnBreakerRung: once panics have tripped the breaker onto
// Medea-TP, a repair runs on that rung too and is restored at its first
// attempt, instead of calling the algorithm the breaker has benched.
func TestRepairRunsOnBreakerRung(t *testing.T) {
	m, byz := panicky(Config{Interval: time.Second})
	now := t0
	_ = m.SubmitLRA(app("a", 4), now)
	if stats := m.RunCycle(now); stats.Placed != 1 {
		t.Fatalf("setup: %+v", stats)
	}
	byz.Every = 1
	// Three panicking batch cycles trip the breaker (threshold 3). The
	// shared tag keeps the batch one component, so the injector sees one
	// Place per cycle.
	for i := 0; i < 3; i++ {
		now = now.Add(time.Second)
		_ = m.SubmitLRA(app(fmt.Sprintf("b%d", i), 1, "b"), now)
		if stats := m.RunCycle(now); !stats.PanicRecovered {
			t.Fatalf("cycle %d did not panic: %+v", i, stats)
		}
	}
	if got := m.Pipeline.Get(metrics.BreakerTrips); got != 1 {
		t.Fatalf("breaker trips = %d, want 1", got)
	}
	ids, _ := m.Deployed("a")
	node, _ := m.Cluster.ContainerNode(ids[0])
	now = now.Add(time.Second)
	evs := m.FailNode(node, now)
	stats := m.RunCycle(now)
	if stats.Level != 1 || stats.Algorithm != lra.NewTagPopularity().Name() {
		t.Fatalf("cycle after the trip ran %q at level %d, want Medea-TP at 1", stats.Algorithm, stats.Level)
	}
	if stats.Repaired != len(evs) || stats.RepairFailures != 0 || stats.PanicRecovered {
		t.Fatalf("repair on the breaker's rung: %+v, want %d restored at the first attempt", stats, len(evs))
	}
	if got := degradedLRAs(m); len(got) != 0 {
		t.Errorf("still degraded: %v", got)
	}
}

// TestRepairFaultsTripBreaker: repair-only cycles answer to the breaker.
// A panicking repair consumes no attempt, keeps its gate and writes no
// requeue or reject record; three in a row trip the breaker and the fourth
// cycle restores the LRA on Medea-TP. A recovery from the journal taken
// after the trip resumes on the same rung.
func TestRepairFaultsTripBreaker(t *testing.T) {
	cfg := Config{Interval: time.Second}
	m, byz := panicky(cfg)
	j := journal.NewMemory()
	if err := m.AttachJournal(j, t0); err != nil {
		t.Fatal(err)
	}
	_ = m.SubmitLRA(app("a", 4), t0)
	if stats, ran := m.Tick(t0); !ran || stats.Placed != 1 {
		t.Fatalf("setup: %+v", stats)
	}
	ids, _ := m.Deployed("a")
	node, _ := m.Cluster.ContainerNode(ids[0])
	byz.Every = 1
	t1 := t0.Add(10 * time.Second)
	evs := m.FailNode(node, t1)
	for i := 0; i < 3; i++ {
		stats, ran := m.Tick(t1.Add(time.Duration(i) * time.Second))
		if !ran || !stats.PanicRecovered || stats.Repaired != 0 || stats.RepairFailures != 0 || stats.Level != 0 {
			t.Fatalf("cycle %d: ran %v, %+v, want a panicking repair on the configured algorithm", i, ran, stats)
		}
		if attempts, ok := m.RepairBudget("a"); !ok || attempts != 0 {
			t.Fatalf("cycle %d: repair budget %d (pending %v), want 0", i, attempts, ok)
		}
	}
	if got := m.Pipeline.Get(metrics.BreakerTrips); got != 1 {
		t.Fatalf("breaker trips = %d, want 1", got)
	}

	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	_, recs, err := j.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.AppID == "a" && (r.Kind == journal.KindRequeue || r.Kind == journal.KindReject) {
			t.Fatalf("panicking repair journaled %+v", r)
		}
	}
	_, rbyz := panicky(cfg)
	rbyz.Every = 1
	rec, err := Recover(j.Clone(), m.Cluster.Clone(), rbyz, cfg, t1.Add(3*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if stats, ran := rec.Tick(t1.Add(3 * time.Second)); !ran || stats.Level != 1 || stats.Repaired != len(evs) {
		t.Fatalf("recovered scheduler: ran %v, %+v, want %d restored at level 1", ran, stats, len(evs))
	}

	stats, ran := m.Tick(t1.Add(3 * time.Second))
	if !ran || stats.Level != 1 || stats.Algorithm != lra.NewTagPopularity().Name() || stats.Repaired != len(evs) {
		t.Fatalf("fourth cycle: ran %v, %+v, want %d restored on Medea-TP", ran, stats, len(evs))
	}
	if got := m.Recovery.MTTR(); got != 3*time.Second {
		t.Errorf("MTTR = %v, want 3s", got)
	}
	if got := m.Recovery.RepairAttemptsFailed; got != 0 {
		t.Errorf("RepairAttemptsFailed = %d, want 0", got)
	}
}

// scriptedAlg places with Medea-NC, then lets edit rewrite the result (a
// nil edit leaves it as it is).
type scriptedAlg struct {
	edit func(*lra.Result) *lra.Result
}

func (s *scriptedAlg) Name() string { return "scripted" }

func (s *scriptedAlg) Place(state *cluster.Cluster, apps []*lra.Application, active []constraint.Entry, opts lra.Options) *lra.Result {
	res := lra.NewNodeCandidates().Place(state, apps, active, opts)
	if s.edit == nil {
		return res
	}
	return s.edit(res)
}

// TestRepairFaultRule: a repair answers to the batch's fault rule. A
// panic or a malformed result fails the cycle and spends no attempt; a
// placement that does not cover the lost containers is vetoed and spends
// one; an exhausted solve fails the cycle but its placement is used.
func TestRepairFaultRule(t *testing.T) {
	for _, tc := range []struct {
		name     string
		edit     func(*lra.Result) *lra.Result
		fault    string
		attempts int // consumed after the cycle
		vetoes   int
		restored bool
	}{
		{"panic", func(*lra.Result) *lra.Result { panic("boom") }, "panic", 0, 0, false},
		{"malformed", func(*lra.Result) *lra.Result { return &lra.Result{} }, "validation", 0, 1, false},
		{"unknown group", func(r *lra.Result) *lra.Result {
			r.Placements[0].Assignments[0].Group = "nope"
			return r
		}, "validation", 1, 1, false},
		{"partial", func(r *lra.Result) *lra.Result {
			p := &r.Placements[0]
			p.Assignments = p.Assignments[:len(p.Assignments)-1]
			return r
		}, "validation", 1, 1, false},
		{"exhausted", func(r *lra.Result) *lra.Result {
			r.Exhausted = true
			return r
		}, "exhausted", 0, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			alg := &scriptedAlg{}
			m := New(cluster.Grid(8, 4, resource.New(16384, 8)), alg, Config{Interval: time.Second})
			_ = m.SubmitLRA(app("a", 4), t0)
			m.RunCycle(t0)
			ids, _ := m.Deployed("a")
			node, _ := m.Cluster.ContainerNode(ids[0])
			evs := m.FailNode(node, t0.Add(time.Minute))
			alg.edit = tc.edit
			stats := m.RunCycle(t0.Add(time.Minute))
			if stats.fault != tc.fault || stats.ValidationRejects != tc.vetoes {
				t.Errorf("fault %q with %d vetoes, want %q with %d", stats.fault, stats.ValidationRejects, tc.fault, tc.vetoes)
			}
			if restored := stats.Repaired == len(evs); restored != tc.restored {
				t.Errorf("repaired %d of %d, want restored %v", stats.Repaired, len(evs), tc.restored)
			}
			if attempts, _ := m.RepairBudget("a"); attempts != tc.attempts {
				t.Errorf("repair budget %d, want %d", attempts, tc.attempts)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
