package core

import (
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/lra"
	"medea/internal/resource"
	"medea/internal/taskched"
)

var t0 = time.Unix(5000, 0)

func newMedea(alg lra.Algorithm, cfg Config) *Medea {
	c := cluster.Grid(8, 4, resource.New(16384, 8))
	return New(c, alg, cfg)
}

func app(id string, count int, tags ...constraint.Tag) *lra.Application {
	return &lra.Application{
		ID:     id,
		Groups: []lra.ContainerGroup{{Name: "w", Count: count, Demand: resource.New(2048, 1), Tags: tags}},
	}
}

func TestSubmitAndCycle(t *testing.T) {
	m := newMedea(lra.NewILP(), Config{})
	if err := m.SubmitLRA(app("a1", 4, "hb"), t0); err != nil {
		t.Fatal(err)
	}
	if m.PendingLRAs() != 1 {
		t.Fatalf("pending = %d", m.PendingLRAs())
	}
	stats := m.RunCycle(t0.Add(time.Second))
	if stats.Placed != 1 || stats.Batch != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	ids, ok := m.Deployed("a1")
	if !ok || len(ids) != 4 {
		t.Fatalf("deployed = %v, %v", ids, ok)
	}
	if got := m.Cluster.NumContainers(); got != 4 {
		t.Errorf("cluster containers = %d", got)
	}
	if len(m.LRALatencies) != 1 || m.LRALatencies[0] < time.Second {
		t.Errorf("latencies = %v", m.LRALatencies)
	}
}

func TestSubmitValidation(t *testing.T) {
	m := newMedea(lra.NewSerial(), Config{})
	if err := m.SubmitLRA(&lra.Application{ID: ""}, t0); err == nil {
		t.Error("invalid app accepted")
	}
	if err := m.SubmitLRA(app("dup", 1), t0); err != nil {
		t.Fatal(err)
	}
	m.RunCycle(t0)
	if err := m.SubmitLRA(app("dup", 1), t0); err == nil {
		t.Error("duplicate deployed app accepted")
	}
}

// TestTickInterval: cycles fire once per interval, and a zero or
// negative interval selects the 10 s default. Tick steps its deadline by
// the interval until it passes now, so a negative step would never get
// there; the ticks run on a goroutine so that such a hang fails the test
// instead of the suite.
func TestTickInterval(t *testing.T) {
	for _, interval := range []time.Duration{10 * time.Second, 0, -time.Second} {
		m := newMedea(lra.NewSerial(), Config{Interval: interval})
		done := make(chan [3]bool, 1)
		go func() {
			var ran [3]bool
			_ = m.SubmitLRA(app("a", 2), t0)
			_, ran[0] = m.Tick(t0)
			_ = m.SubmitLRA(app("b", 2), t0.Add(time.Second))
			_, ran[1] = m.Tick(t0.Add(5 * time.Second))
			_, ran[2] = m.Tick(t0.Add(11 * time.Second))
			done <- ran
		}()
		select {
		case ran := <-done:
			if ran != [3]bool{true, false, true} {
				t.Errorf("interval %v: ticks at 0s, 5s and 11s ran %v, want [true false true]", interval, ran)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("interval %v: Tick did not return", interval)
		}
	}
}

func TestConstraintLifecycle(t *testing.T) {
	m := newMedea(lra.NewILP(), Config{})
	a := app("a1", 2, "w")
	a.Constraints = []constraint.Constraint{
		constraint.New(constraint.AntiAffinity(constraint.E("w"), constraint.E("w"), constraint.Node)),
	}
	_ = m.SubmitLRA(a, t0)
	if m.Constraints.Len() != 1 {
		t.Fatalf("constraints = %d", m.Constraints.Len())
	}
	m.RunCycle(t0)
	if _, ok := m.Deployed("a1"); !ok {
		t.Fatal("not deployed")
	}
	// Constraints remain active while deployed (needed by later cycles).
	if m.Constraints.Len() != 1 {
		t.Errorf("constraints after deploy = %d", m.Constraints.Len())
	}
	if err := m.RemoveLRA("a1"); err != nil {
		t.Fatal(err)
	}
	if m.Constraints.Len() != 0 || m.Cluster.NumContainers() != 0 {
		t.Errorf("teardown incomplete: cons=%d containers=%d", m.Constraints.Len(), m.Cluster.NumContainers())
	}
	if err := m.RemoveLRA("a1"); err == nil {
		t.Error("double remove accepted")
	}
}

// TestUnplaceableRetryAndReject: an app that can never fit is requeued
// MaxRetries times, then rejected.
func TestUnplaceableRetryAndReject(t *testing.T) {
	m := newMedea(lra.NewSerial(), Config{MaxRetries: 2})
	_ = m.SubmitLRA(app("huge", 1000), t0)
	for i := 0; i < 3; i++ {
		m.RunCycle(t0.Add(time.Duration(i) * time.Minute))
	}
	if len(m.Rejected) != 1 || m.Rejected[0] != "huge" {
		t.Errorf("Rejected = %v", m.Rejected)
	}
	if m.PendingLRAs() != 0 {
		t.Errorf("pending = %d", m.PendingLRAs())
	}
	// Its constraints must be gone.
	if m.Constraints.Len() != 0 {
		t.Errorf("constraints leak: %d", m.Constraints.Len())
	}
}

// TestTaskPathUnaffected: tasks flow through the task scheduler directly.
func TestTaskPathUnaffected(t *testing.T) {
	m := newMedea(lra.NewILP(), Config{})
	if err := m.SubmitTasks("job", "default", t0, taskched.TaskRequest{Count: 4, Demand: resource.New(1024, 1)}); err != nil {
		t.Fatal(err)
	}
	if m.PendingLRAs() != 0 {
		t.Error("tasks leaked into LRA queue")
	}
	allocs := m.Tasks.NodeHeartbeat(0, t0)
	if len(allocs) != 4 {
		t.Errorf("task allocs = %d", len(allocs))
	}
}

// TestILPAllMode: tasks become LRAs in the single-scheduler strawman.
func TestILPAllMode(t *testing.T) {
	m := newMedea(lra.NewILP(), Config{ScheduleTasksViaLRA: true})
	if err := m.SubmitTasks("job", "default", t0, taskched.TaskRequest{Count: 2, Demand: resource.New(1024, 1)}); err != nil {
		t.Fatal(err)
	}
	if m.PendingLRAs() != 1 {
		t.Fatalf("pending LRAs = %d, want 1", m.PendingLRAs())
	}
	stats := m.RunCycle(t0)
	if stats.Placed != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if got := m.Cluster.NumContainers(); got != 2 {
		t.Errorf("containers = %d", got)
	}
}

// TestConflictResubmission: occupy the cluster between decision and
// commit by letting two identical Medeas share a cluster, forcing the
// second commit to conflict. Simpler: commit directly to fill the cluster
// after submission but before the cycle; the ILP sees the old state only
// if we bypass — instead we simulate by filling all nodes so placement
// fails and the app is requeued.
func TestConflictResubmission(t *testing.T) {
	c := cluster.Grid(2, 2, resource.New(4096, 4))
	m := New(c, lra.NewSerial(), Config{MaxRetries: 5})
	_ = m.SubmitLRA(app("a", 2), t0)
	// Fill the cluster with task containers so the LRA cannot fit.
	_ = m.Tasks.Submit("filler", "default", t0, taskched.TaskRequest{Count: 2, Demand: resource.New(4096, 4)})
	for n := 0; n < 2; n++ {
		m.Tasks.NodeHeartbeat(cluster.NodeID(n), t0)
	}
	stats := m.RunCycle(t0)
	if stats.Requeued != 1 || stats.Placed != 0 {
		t.Fatalf("stats = %+v, want requeue", stats)
	}
	// Free the cluster; next cycle succeeds.
	_ = m.Tasks.ReleaseTask("filler#t1", "default", resource.New(4096, 4))
	_ = m.Tasks.ReleaseTask("filler#t2", "default", resource.New(4096, 4))
	stats = m.RunCycle(t0.Add(time.Minute))
	if stats.Placed != 1 {
		t.Fatalf("after free: stats = %+v", stats)
	}
}

// TestBatchingImprovesPlacement: with interval batching, two apps with an
// inter-app constraint are placed together cleanly by the ILP.
func TestBatchingImprovesPlacement(t *testing.T) {
	c := cluster.Grid(2, 2, resource.New(4096, 4))
	m := New(c, lra.NewILP(), Config{})
	a := app("A", 2, "a")
	b := app("B", 2, "b")
	b.Constraints = []constraint.Constraint{
		constraint.New(constraint.AntiAffinity(constraint.E("b"), constraint.E("a"), constraint.Node)),
	}
	_ = m.SubmitLRA(a, t0)
	_ = m.SubmitLRA(b, t0)
	stats := m.RunCycle(t0)
	if stats.Placed != 2 {
		t.Fatalf("placed = %d, want 2", stats.Placed)
	}
	rep := lra.Evaluate(m.Cluster, m.ActiveEntries())
	if rep.ViolatedContainers != 0 {
		t.Errorf("violations = %d", rep.ViolatedContainers)
	}
}

// TestRebalance: force a violating placement (J-Kube fails a split
// affinity pair), then Rebalance fixes it without touching task
// containers.
func TestRebalance(t *testing.T) {
	c := cluster.Grid(8, 4, resource.New(16384, 8))
	m := New(c, lra.NewJKube(), Config{})
	a := app("A", 2, "ta")
	a.Constraints = []constraint.Constraint{
		constraint.New(constraint.Affinity(constraint.E("ta"), constraint.E("tb"), constraint.Node)),
	}
	b := app("B", 2, "tb")
	_ = m.SubmitLRA(a, t0)
	m.RunCycle(t0)
	_ = m.SubmitLRA(b, t0.Add(10*time.Second))
	m.RunCycle(t0.Add(10 * time.Second))
	before := lra.Evaluate(m.Cluster, m.ActiveEntries())
	if before.ViolatedContainers == 0 {
		t.Skip("J-Kube repaired by coincidence; scenario not violating")
	}
	plan := m.Rebalance(lra.MigrationOptions{MaxMoves: 4, MoveCost: 0.01})
	after := lra.Evaluate(m.Cluster, m.ActiveEntries())
	if after.ViolatedContainers >= before.ViolatedContainers {
		t.Errorf("rebalance did not help: %d -> %d (moves %v)",
			before.ViolatedContainers, after.ViolatedContainers, plan.Moves)
	}
	if len(plan.Moves) == 0 {
		t.Error("no moves applied")
	}
}

// TestRebalanceNeverMovesTasks: task containers are not migration
// candidates.
func TestRebalanceNeverMovesTasks(t *testing.T) {
	c := cluster.Grid(4, 2, resource.New(16384, 8))
	m := New(c, lra.NewSerial(), Config{})
	_ = m.Tasks.Submit("job", "default", t0, taskched.TaskRequest{Count: 4, Demand: resource.New(1024, 1)})
	m.Tasks.NodeHeartbeat(0, t0)
	// Operator constraint that the task containers (untagged) can't even
	// match; rebalance should be a no-op with no panics.
	_ = m.Constraints.AddOperator(constraint.New(constraint.AntiAffinity(constraint.E("x"), constraint.E("x"), constraint.Node)))
	plan := m.Rebalance(lra.MigrationOptions{})
	if len(plan.Moves) != 0 {
		t.Errorf("moved task containers: %v", plan.Moves)
	}
}
