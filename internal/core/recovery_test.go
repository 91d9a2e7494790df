package core

import (
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/lra"
	"medea/internal/resource"
	"medea/internal/sim"
	"medea/internal/taskched"
)

// TestConfigSentinels: the zero value of every knob selects its documented
// default; negative values disable the feature instead of silently
// becoming the default (the MaxRetries: 0 ambiguity).
func TestConfigSentinels(t *testing.T) {
	if got := (Config{}).maxRetries(); got != 3 {
		t.Errorf("maxRetries zero = %d, want 3", got)
	}
	if got := (Config{MaxRetries: -1}).maxRetries(); got != 0 {
		t.Errorf("maxRetries -1 = %d, want 0", got)
	}
	if got := (Config{MaxRetries: 7}).maxRetries(); got != 7 {
		t.Errorf("maxRetries 7 = %d", got)
	}
	if got := (Config{Interval: 10 * time.Second}).repairBackoff(); got != 10*time.Second {
		t.Errorf("repairBackoff zero = %v, want Interval", got)
	}
}

// TestNoRetriesSentinel: MaxRetries < 0 really means no retries — an
// unplaceable LRA is rejected on its first cycle.
func TestNoRetriesSentinel(t *testing.T) {
	m := newMedea(lra.NewSerial(), Config{MaxRetries: -1})
	_ = m.SubmitLRA(app("huge", 1000), t0)
	stats := m.RunCycle(t0)
	if stats.Rejected != 1 || stats.Requeued != 0 {
		t.Errorf("stats = %+v, want immediate rejection", stats)
	}
}

// TestTickAnchoredSchedule: cycle deadlines advance along the schedule
// established by the first tick, so a late tick does not push subsequent
// deadlines out (call-time anchoring would drift under load).
func TestTickAnchoredSchedule(t *testing.T) {
	m := newMedea(lra.NewSerial(), Config{Interval: 10 * time.Second})
	_ = m.SubmitLRA(app("a", 1), t0)
	if _, ran := m.Tick(t0); !ran {
		t.Fatal("first tick should run")
	}
	_ = m.SubmitLRA(app("b", 1), t0.Add(20*time.Second))
	// The caller is 5s late for the t0+20s deadline.
	if _, ran := m.Tick(t0.Add(25 * time.Second)); !ran {
		t.Fatal("late tick should run")
	}
	// The next deadline is t0+30s on the anchored schedule; call-time
	// anchoring would have moved it to t0+35s.
	_ = m.SubmitLRA(app("c", 1), t0.Add(26*time.Second))
	if _, ran := m.Tick(t0.Add(31 * time.Second)); !ran {
		t.Error("deadline drifted to call time + interval")
	}
}

// TestTickIdleDoesNotConsumeSlot: a tick with nothing to do leaves the
// deadline untouched, so work submitted right after is scheduled at the
// next tick instead of a full interval later.
func TestTickIdleDoesNotConsumeSlot(t *testing.T) {
	m := newMedea(lra.NewSerial(), Config{Interval: 10 * time.Second})
	if _, ran := m.Tick(t0); ran {
		t.Fatal("idle tick ran a cycle")
	}
	_ = m.SubmitLRA(app("a", 1), t0.Add(time.Second))
	if _, ran := m.Tick(t0.Add(2 * time.Second)); !ran {
		t.Error("idle tick consumed the cycle slot")
	}
}

// TestFailNodeTriggersRepair: failing a node hosting LRA containers
// degrades the LRA, and the next cycle restores it to full strength with
// the original container identities.
func TestFailNodeTriggersRepair(t *testing.T) {
	m := newMedea(lra.NewILP(), Config{})
	_ = m.SubmitLRA(app("a1", 4, "hb"), t0)
	m.RunCycle(t0)
	before, _ := m.Deployed("a1")
	node, ok := m.Cluster.ContainerNode(before[0])
	if !ok {
		t.Fatal("container has no node")
	}
	lost := 0
	for _, id := range before {
		if n, _ := m.Cluster.ContainerNode(id); n == node {
			lost++
		}
	}

	t1 := t0.Add(time.Minute)
	evs := m.FailNode(node, t1)
	if len(evs) != lost {
		t.Fatalf("evictions = %d, want %d", len(evs), lost)
	}
	if m.FailNode(node, t1) != nil {
		t.Error("double fail evicted again")
	}
	if got := m.DegradedLRAs(); len(got) != 1 || got[0] != "a1" {
		t.Fatalf("DegradedLRAs = %v", got)
	}
	if got := m.PendingRepairs(); got != lost {
		t.Fatalf("PendingRepairs = %d, want %d", got, lost)
	}

	t2 := t1.Add(2 * time.Second)
	stats := m.RunCycle(t2)
	if stats.Repaired != lost {
		t.Fatalf("stats = %+v, want %d repaired", stats, lost)
	}
	after, _ := m.Deployed("a1")
	if len(after) != 4 {
		t.Fatalf("deployed = %d containers, want 4", len(after))
	}
	// Container identity is stable across failures.
	set := map[cluster.ContainerID]bool{}
	for _, id := range after {
		set[id] = true
	}
	for _, id := range before {
		if !set[id] {
			t.Errorf("container %s lost its identity across repair", id)
		}
	}
	if len(m.DegradedLRAs()) != 0 || m.PendingRepairs() != 0 {
		t.Error("still degraded after repair")
	}
	if m.Recovery.NodeFailures != 1 || m.Recovery.Evictions != lost || m.Recovery.RepairsPlaced != lost {
		t.Errorf("recovery stats = %+v", m.Recovery)
	}
	if mttr := m.Recovery.MTTR(); mttr < 2*time.Second {
		t.Errorf("MTTR = %v, want >= eviction-to-repair gap of 2s", mttr)
	}
	if d := m.Recovery.DegradedTime["a1"]; d < 2*time.Second {
		t.Errorf("degraded time = %v", d)
	}
}

// TestDrainRelocatesLRAsKeepsTasks: draining moves LRA containers through
// the repair pipeline but leaves task containers running in place.
func TestDrainRelocatesLRAsKeepsTasks(t *testing.T) {
	m := newMedea(lra.NewSerial(), Config{})
	_ = m.SubmitLRA(app("a1", 2, "hb"), t0)
	m.RunCycle(t0)
	ids, _ := m.Deployed("a1")
	node, _ := m.Cluster.ContainerNode(ids[0])
	// Park a task container on the same node.
	_ = m.SubmitTasks("job", "default", t0, taskched.TaskRequest{Count: 1, Demand: resource.New(1024, 1)})
	allocs := m.Tasks.NodeHeartbeat(node, t0)
	if len(allocs) != 1 {
		t.Fatalf("task allocs = %d", len(allocs))
	}

	t1 := t0.Add(time.Minute)
	evs := m.DrainNode(node, t1)
	if len(evs) == 0 {
		t.Fatal("drain relocated nothing")
	}
	for _, ev := range evs {
		if ev.Container == allocs[0].Container {
			t.Error("drain evicted a task container")
		}
	}
	if n, ok := m.Cluster.ContainerNode(allocs[0].Container); !ok || n != node {
		t.Error("task container did not keep running on the draining node")
	}

	m.RunCycle(t1.Add(time.Second))
	after, _ := m.Deployed("a1")
	if len(after) != 2 {
		t.Fatalf("deployed = %d, want 2", len(after))
	}
	for _, id := range after {
		if n, _ := m.Cluster.ContainerNode(id); n == node {
			t.Errorf("repair placed %s back on the draining node", id)
		}
	}
	if m.Recovery.NodeDrains != 1 {
		t.Errorf("NodeDrains = %d", m.Recovery.NodeDrains)
	}
}

// drainedPair builds a 2-node cluster where LRA "a" fully occupies node 0
// (node 1 is blocked by a task filler), then fails node 0. Returns the
// Medea and the filler's release handle.
func drainedPair(t *testing.T, cfg Config) (*Medea, func()) {
	t.Helper()
	c := cluster.Grid(2, 1, resource.New(4096, 4))
	m := New(c, lra.NewSerial(), cfg)
	_ = m.Tasks.Submit("filler", "default", t0, taskched.TaskRequest{Count: 1, Demand: resource.New(4096, 4)})
	if got := m.Tasks.NodeHeartbeat(1, t0); len(got) != 1 {
		t.Fatal("filler did not land on node 1")
	}
	_ = m.SubmitLRA(app("a", 2), t0)
	if stats := m.RunCycle(t0); stats.Placed != 1 {
		t.Fatalf("LRA not placed: %+v", stats)
	}
	release := func() {
		if err := m.Tasks.ReleaseTask("filler#t1", "default", resource.New(4096, 4)); err != nil {
			t.Fatal(err)
		}
	}
	return m, release
}

// TestRepairBackoffAndAbandon: repair attempts back off exponentially and
// the request is dropped after the retry budget, with the degraded time
// accounted. Node 1 stays full throughout, so the Medea-NC fallback fails
// too once it takes over.
func TestRepairBackoffAndAbandon(t *testing.T) {
	cfg := Config{Interval: time.Second, RepairBackoff: time.Second}
	m, _ := drainedPair(t, cfg)
	t1 := t0.Add(time.Minute)
	if evs := m.FailNode(0, t1); len(evs) != 2 {
		t.Fatalf("evictions = %d, want 2", len(evs))
	}
	// The deterministic backoff schedule: ~1s after attempt 1, ~2s after
	// attempt 2 (exponential base plus per-app jitter).
	g1 := cfg.repairBackoffFor("a", 1)
	g2 := cfg.repairBackoffFor("a", 2)
	if g1 < time.Second || g2 < 2*time.Second {
		t.Fatalf("backoff gates shrank below base: g1=%v g2=%v", g1, g2)
	}

	// Attempt 1 fails; backoff gates the next attempt until t1+g1.
	m.RunCycle(t1)
	if m.Recovery.RepairAttemptsFailed != 1 {
		t.Fatalf("attempts = %d", m.Recovery.RepairAttemptsFailed)
	}
	m.RunCycle(t1.Add(g1 - time.Millisecond))
	if m.Recovery.RepairAttemptsFailed != 1 {
		t.Error("attempt ran inside the backoff window")
	}
	// Attempt 2 at +g1; backoff roughly doubles to g2.
	m.RunCycle(t1.Add(g1))
	if m.Recovery.RepairAttemptsFailed != 2 {
		t.Fatalf("attempts = %d, want 2", m.Recovery.RepairAttemptsFailed)
	}
	m.RunCycle(t1.Add(g1 + g2 - time.Millisecond))
	if m.Recovery.RepairAttemptsFailed != 2 {
		t.Error("attempt ran inside the doubled backoff window")
	}
	// Attempts 3 to repairMaxRetries run on the fallback, each at its gate.
	abandonAt := t1.Add(g1 + g2)
	for a := 3; a <= repairMaxRetries; a++ {
		m.RunCycle(abandonAt)
		if m.Recovery.RepairAttemptsFailed != a {
			t.Fatalf("attempts = %d, want %d", m.Recovery.RepairAttemptsFailed, a)
		}
		if m.Recovery.RepairsAbandoned != 0 {
			t.Fatalf("abandoned after %d attempts, inside the budget", a)
		}
		abandonAt = abandonAt.Add(cfg.repairBackoffFor("a", a))
	}
	// The next attempt exceeds the budget: abandoned.
	m.RunCycle(abandonAt)
	if m.Recovery.RepairsAbandoned != 1 {
		t.Fatalf("RepairsAbandoned = %d", m.Recovery.RepairsAbandoned)
	}
	if m.Recovery.FallbackPlacements != 0 {
		t.Errorf("FallbackPlacements = %d with no room anywhere", m.Recovery.FallbackPlacements)
	}
	if m.PendingRepairs() != 0 {
		t.Error("abandoned repair still pending")
	}
	if got := m.DegradedLRAs(); len(got) != 1 || got[0] != "a" {
		t.Errorf("DegradedLRAs = %v, abandoned LRA should stay degraded", got)
	}
	if d, want := m.Recovery.DegradedTime["a"], abandonAt.Sub(t1); d != want {
		t.Errorf("degraded time = %v, want %v", d, want)
	}
}

// TestRepairFallbackToGreedy: after repairFallbackAfter failed attempts,
// the repair batch is placed by the greedy heuristic.
func TestRepairFallbackToGreedy(t *testing.T) {
	cfg := Config{Interval: time.Second, RepairBackoff: time.Second}
	m, release := drainedPair(t, cfg)
	t1 := t0.Add(time.Minute)
	m.FailNode(0, t1)
	at := t1
	for a := 1; a <= repairFallbackAfter; a++ {
		m.RunCycle(at) // fails: the cluster is full
		at = at.Add(cfg.repairBackoffFor("a", a))
	}
	release() // capacity returns
	stats := m.RunCycle(at)
	if stats.Repaired != 2 {
		t.Fatalf("stats = %+v, want 2 repaired", stats)
	}
	if m.Recovery.FallbackPlacements != 1 {
		t.Errorf("FallbackPlacements = %d, want 1", m.Recovery.FallbackPlacements)
	}
}

// TestRecoverNodeClearsBackoff: when a node returns, pending repairs
// become eligible immediately instead of waiting out their backoff.
func TestRecoverNodeClearsBackoff(t *testing.T) {
	m, _ := drainedPair(t, Config{Interval: time.Second, RepairBackoff: time.Hour})
	t1 := t0.Add(time.Minute)
	m.FailNode(0, t1)
	m.RunCycle(t1) // fails; backoff gate now t1+1h
	if !m.RecoverNode(0, t1.Add(time.Second)) {
		t.Fatal("recover reported no change")
	}
	stats := m.RunCycle(t1.Add(2 * time.Second))
	if stats.Repaired != 2 {
		t.Fatalf("stats = %+v, want repair right after recovery", stats)
	}
}

// TestRemoveLRACancelsRepair: tearing down a degraded LRA drops its
// pending repair.
func TestRemoveLRACancelsRepair(t *testing.T) {
	m := newMedea(lra.NewSerial(), Config{})
	_ = m.SubmitLRA(app("a", 2), t0)
	m.RunCycle(t0)
	ids, _ := m.Deployed("a")
	node, _ := m.Cluster.ContainerNode(ids[0])
	m.FailNode(node, t0.Add(time.Minute))
	if m.PendingRepairs() == 0 {
		t.Fatal("no pending repair")
	}
	if err := m.RemoveLRA("a"); err != nil {
		t.Fatal(err)
	}
	if m.PendingRepairs() != 0 {
		t.Error("repair survived RemoveLRA")
	}
	stats := m.RunCycle(t0.Add(2 * time.Minute))
	if stats.Repaired != 0 || stats.RepairFailures != 0 {
		t.Errorf("stats = %+v, removed LRA repaired", stats)
	}
}

// TestUnknownNodeIDsAreNoOps: failure reports for node IDs outside the
// cluster (stale or malformed) are ignored, not panics.
func TestUnknownNodeIDsAreNoOps(t *testing.T) {
	m := newMedea(lra.NewSerial(), Config{})
	for _, id := range []cluster.NodeID{-1, cluster.NodeID(m.Cluster.NumNodes()), 99} {
		if evs := m.FailNode(id, t0); evs != nil {
			t.Errorf("FailNode(%d) = %v, want nil", id, evs)
		}
		if evs := m.DrainNode(id, t0); evs != nil {
			t.Errorf("DrainNode(%d) = %v, want nil", id, evs)
		}
		if m.RecoverNode(id, t0) {
			t.Errorf("RecoverNode(%d) reported a change", id)
		}
	}
	r := m.Recovery
	if r.NodeFailures != 0 || r.NodeDrains != 0 || r.NodeRecoveries != 0 {
		t.Errorf("unknown node IDs were counted: %+v", r)
	}
}

// TestTaskEvictionRefundsQueue: a task container lost to a node failure is
// refunded to its queue's accounting.
func TestTaskEvictionRefundsQueue(t *testing.T) {
	m := newMedea(lra.NewSerial(), Config{})
	_ = m.SubmitTasks("job", "default", t0, taskched.TaskRequest{Count: 2, Demand: resource.New(1024, 1)})
	m.Tasks.NodeHeartbeat(3, t0)
	if got := m.Tasks.QueueUsed("default"); got != resource.New(2048, 2) {
		t.Fatalf("queue used = %v", got)
	}
	m.FailNode(3, t0.Add(time.Minute))
	if got := m.Tasks.QueueUsed("default"); !got.IsZero() {
		t.Errorf("queue used after eviction = %v, want zero", got)
	}
	if m.Recovery.TaskEvictions != 2 {
		t.Errorf("TaskEvictions = %d", m.Recovery.TaskEvictions)
	}
	if m.PendingRepairs() != 0 {
		t.Error("task evictions queued LRA repairs")
	}
}

// TestSimDrivenRecovery is the acceptance scenario: under a simulated
// SU-wide failure, every degraded LRA returns to its declared container
// count within the retry budget, and repair latencies are nonzero and
// bounded by budget × interval.
func TestSimDrivenRecovery(t *testing.T) {
	const interval = 10 * time.Second
	c := cluster.Grid(16, 4, resource.New(16384, 8))
	m := New(c, lra.NewILP(), Config{Interval: interval})
	eng := sim.NewEngine(time.Time{})
	start := eng.Now()
	end := start.Add(15 * time.Minute)

	apps := []string{"hbase", "storm", "kafka", "memcached"}
	for _, id := range apps {
		if err := m.SubmitLRA(app(id, 4, constraint.Tag("c-"+id[:2])), start); err != nil {
			t.Fatal(err)
		}
	}
	eng.Every(start, interval, func(now time.Time) bool {
		m.Tick(now)
		return now.Before(end)
	})
	// One whole "service unit" (nodes 0–3) fails a minute in and returns
	// five minutes later.
	su := []cluster.NodeID{0, 1, 2, 3}
	eng.At(start.Add(61*time.Second), func(now time.Time) {
		for _, n := range su {
			m.FailNode(n, now)
		}
	})
	eng.At(start.Add(5*time.Minute), func(now time.Time) {
		for _, n := range su {
			m.RecoverNode(n, now)
		}
	})
	eng.Run(0)

	if got := len(m.Rejected); got != 0 {
		t.Fatalf("rejected LRAs: %v", m.Rejected)
	}
	for _, id := range apps {
		ids, ok := m.Deployed(id)
		if !ok || len(ids) != 4 {
			t.Errorf("%s: %d/4 containers after recovery window", id, len(ids))
		}
	}
	if got := m.DegradedLRAs(); len(got) != 0 {
		t.Errorf("still degraded at end: %v", got)
	}
	if m.Recovery.Evictions == 0 {
		t.Fatal("scenario evicted nothing; SU failure missed the LRAs")
	}
	if m.Recovery.RepairsPlaced != m.Recovery.Evictions {
		t.Errorf("repaired %d of %d evicted", m.Recovery.RepairsPlaced, m.Recovery.Evictions)
	}
	if mttr := m.Recovery.MTTR(); mttr <= 0 {
		t.Error("MTTR should be nonzero: repairs happen at cycle boundaries")
	}
	budget := repairMaxRetries + 1
	bound := time.Duration(budget)*interval + time.Minute // + alg latency slack
	if max := m.Recovery.MaxRepairLatency(); max <= 0 || max > bound {
		t.Errorf("max repair latency = %v, want (0, %v]", max, bound)
	}
	if m.Recovery.NodeFailures != 4 || m.Recovery.NodeRecoveries != 4 {
		t.Errorf("node transitions = %+v", m.Recovery)
	}
}
