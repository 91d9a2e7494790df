package core

import (
	"fmt"
	"testing"
	"time"

	"medea/internal/audit"
	"medea/internal/chaos"
	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/ilp"
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
		t.Fatalf("breaker never tripped: events %v", m.Pipeline.Events())
	}
	if !sawDegraded || m.Pipeline.Get(metrics.DegradedCycles) == 0 {
		t.Fatal("no cycle ran on the degradation ladder")
	}
	if m.Pipeline.Get(metrics.PanicsRecovered) == 0 {
		t.Fatal("no panic was recovered")
	}
	if m.Pipeline.Last(metrics.PanicsRecovered) == "" {
		t.Fatal("recovered panic left no stack in metrics")
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
		t.Fatalf("breaker never reset after the algorithm healed: events %v", m.Pipeline.Events())
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

	// The transition log tells the whole story: at least one trip, one
	// reopen and one reset, in order.
	var trips, reopens, resets int
	for _, e := range m.Pipeline.Events() {
		switch {
		case e.From == "closed" && e.To == "open":
			trips++
		case e.From == "half-open" && e.To == "open":
			reopens++
		case e.To == "closed":
			resets++
		}
	}
	if trips == 0 || reopens == 0 || resets == 0 {
		t.Fatalf("transition log incomplete (trips=%d reopens=%d resets=%d): %v",
			trips, reopens, resets, m.Pipeline.Events())
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

// TestSolverModePipelineCounters: the solve-path counters flow from the
// ILP scheduler through placeBatch into PipelineStats, and SetSolverMode
// switches the path at runtime.
func TestSolverModePipelineCounters(t *testing.T) {
	m := newMedea(lra.NewILP(), Config{Interval: time.Second})
	if err := m.SubmitLRA(app("a1", 4, "hb"), t0); err != nil {
		t.Fatal(err)
	}
	if stats := m.RunCycle(t0.Add(time.Second)); stats.Placed != 1 {
		t.Fatalf("placed = %d", stats.Placed)
	}
	if got := m.Pipeline.ExactSolves(); got != 1 {
		t.Fatalf("exact solves = %d, want 1", got)
	}
	if got := m.Pipeline.ApproxSolves(); got != 0 {
		t.Fatalf("approx solves = %d, want 0", got)
	}

	m.SetSolverMode(ilp.ModeApprox, true)
	if m.SolverMode() != ilp.ModeApprox {
		t.Fatal("SolverMode not stored")
	}
	if err := m.SubmitLRA(app("a2", 4, "hb"), t0.Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if stats := m.RunCycle(t0.Add(2 * time.Second)); stats.Placed != 1 {
		t.Fatalf("approx-mode cycle placed = %d", stats.Placed)
	}
	// The forced approximate path may still prove the root integral (an
	// exact optimum without rounding); either way exactly one more solve
	// is accounted.
	if total := m.Pipeline.ExactSolves() + m.Pipeline.ApproxSolves(); total != 2 {
		t.Fatalf("total solves = %d, want 2", total)
	}
}
