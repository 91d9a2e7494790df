package taskched

import (
	"errors"
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/lra"
	"medea/internal/resource"
)

var t0 = time.Unix(1000, 0)

func newCluster() *cluster.Cluster {
	return cluster.Grid(4, 2, resource.New(8192, 8))
}

func TestSubmitAndHeartbeat(t *testing.T) {
	c := newCluster()
	s := New(c)
	if err := s.Submit("job1", "default", t0, TaskRequest{Count: 3, Demand: resource.New(1024, 1)}); err != nil {
		t.Fatal(err)
	}
	if got := s.Pending(); got != 3 {
		t.Fatalf("Pending = %d, want 3", got)
	}
	allocs := s.NodeHeartbeat(0, t0.Add(time.Second))
	if len(allocs) != 3 {
		t.Fatalf("allocated %d, want 3 (all fit on one node)", len(allocs))
	}
	for _, a := range allocs {
		if a.Node != 0 || a.Latency != time.Second {
			t.Errorf("alloc %+v", a)
		}
	}
	if s.Pending() != 0 {
		t.Errorf("Pending = %d after heartbeat", s.Pending())
	}
	if got := c.NumContainers(); got != 3 {
		t.Errorf("cluster containers = %d", got)
	}
	if len(s.Latencies) != 3 {
		t.Errorf("latencies recorded = %d", len(s.Latencies))
	}
}

func TestHeartbeatRespectsCapacityOfNode(t *testing.T) {
	c := cluster.Grid(1, 1, resource.New(2048, 2))
	s := New(c)
	_ = s.Submit("j", "default", t0, TaskRequest{Count: 5, Demand: resource.New(1024, 1)})
	allocs := s.NodeHeartbeat(0, t0)
	if len(allocs) != 2 {
		t.Fatalf("allocated %d, want 2 (node capacity)", len(allocs))
	}
	if s.Pending() != 3 {
		t.Errorf("Pending = %d, want 3", s.Pending())
	}
}

func TestSubmitErrors(t *testing.T) {
	s := New(newCluster())
	if err := s.Submit("j", "nope", t0, TaskRequest{Count: 1, Demand: resource.New(1, 1)}); err == nil {
		t.Error("unknown queue accepted")
	}
	if err := s.Submit("j", "default", t0, TaskRequest{Count: 0, Demand: resource.New(1, 1)}); err == nil {
		t.Error("zero count accepted")
	}
	if err := s.Submit("j", "default", t0, TaskRequest{Count: 1}); err == nil {
		t.Error("zero demand accepted")
	}
}

// TestCapacityQueueFairness: two queues with 50/50 capacity; the
// under-served queue gets the next allocation.
func TestCapacityQueueFairness(t *testing.T) {
	c := newCluster()
	s := New(c,
		QueueConfig{Name: "a", Capacity: 0.5},
		QueueConfig{Name: "b", Capacity: 0.5},
	)
	_ = s.Submit("ja", "a", t0, TaskRequest{Count: 8, Demand: resource.New(1024, 1)})
	_ = s.Submit("jb", "b", t0, TaskRequest{Count: 8, Demand: resource.New(1024, 1)})
	allocs := s.NodeHeartbeat(0, t0)
	na, nb := 0, 0
	for _, a := range allocs {
		if a.Queue == "a" {
			na++
		} else {
			nb++
		}
	}
	if na == 0 || nb == 0 {
		t.Errorf("one queue starved: a=%d b=%d", na, nb)
	}
	if na+nb == 0 || abs(na-nb) > 1 {
		t.Errorf("unfair split: a=%d b=%d", na, nb)
	}
}

// TestMaxCapacityCap: a queue cannot exceed its MaxCapacity even when the
// cluster is idle.
func TestMaxCapacityCap(t *testing.T) {
	c := cluster.Grid(2, 2, resource.New(8192, 8)) // total 16 GB / 16c
	s := New(c, QueueConfig{Name: "small", Capacity: 0.25, MaxCapacity: 0.25})
	_ = s.Submit("j", "small", t0, TaskRequest{Count: 16, Demand: resource.New(1024, 1)})
	total := 0
	for n := 0; n < 2; n++ {
		total += len(s.NodeHeartbeat(cluster.NodeID(n), t0))
	}
	// 25% of 16 GB+16c scalar => 8 GB scalar budget; each task ~2 GB scalar.
	if total > 4 {
		t.Errorf("allocated %d tasks, exceeds 25%% cap", total)
	}
	if total == 0 {
		t.Error("nothing allocated")
	}
}

// TestWorkConservingElasticity: capacity 0.25 but MaxCapacity 1.0 allows
// using idle resources.
func TestWorkConservingElasticity(t *testing.T) {
	c := cluster.Grid(2, 2, resource.New(8192, 8))
	s := New(c, QueueConfig{Name: "small", Capacity: 0.25, MaxCapacity: 1})
	_ = s.Submit("j", "small", t0, TaskRequest{Count: 16, Demand: resource.New(1024, 1)})
	total := 0
	for n := 0; n < 2; n++ {
		total += len(s.NodeHeartbeat(cluster.NodeID(n), t0))
	}
	if total != 16 {
		t.Errorf("allocated %d, want 16 (work conserving)", total)
	}
}

func TestFIFOWithinQueue(t *testing.T) {
	c := cluster.Grid(1, 1, resource.New(2048, 2))
	s := New(c)
	_ = s.Submit("first", "default", t0, TaskRequest{Count: 1, Demand: resource.New(1024, 1)})
	_ = s.Submit("second", "default", t0.Add(time.Second), TaskRequest{Count: 1, Demand: resource.New(1024, 1)})
	allocs := s.NodeHeartbeat(0, t0.Add(2*time.Second))
	if len(allocs) != 2 || allocs[0].App != "first" || allocs[1].App != "second" {
		t.Errorf("FIFO order broken: %+v", allocs)
	}
}

func TestCommitAndConflict(t *testing.T) {
	c := cluster.Grid(1, 1, resource.New(4096, 4))
	s := New(c)
	good := []lra.Assignment{
		{Container: "lra#0", Node: 0, Demand: resource.New(2048, 1), Tags: []constraint.Tag{"hb"}},
		{Container: "lra#1", Node: 0, Demand: resource.New(2048, 1), Tags: []constraint.Tag{"hb"}},
	}
	if err := s.Commit(good); err != nil {
		t.Fatal(err)
	}
	if got := c.NumContainers(); got != 2 {
		t.Fatalf("containers = %d", got)
	}
	// Node now full: next commit conflicts and must roll back atomically.
	bad := []lra.Assignment{
		{Container: "lra#2", Node: 0, Demand: resource.New(1, 1)}, // fits? only 0MB... 0 free mem
	}
	err := s.Commit(bad)
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v, want ErrConflict", err)
	}
	if got := c.NumContainers(); got != 2 {
		t.Errorf("rollback failed: containers = %d", got)
	}
}

func TestCommitRollbackPartial(t *testing.T) {
	c := cluster.Grid(2, 2, resource.New(2048, 2))
	s := New(c)
	batch := []lra.Assignment{
		{Container: "x#0", Node: 0, Demand: resource.New(2048, 1)},
		{Container: "x#1", Node: 0, Demand: resource.New(2048, 1)}, // does not fit
	}
	if err := s.Commit(batch); !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v", err)
	}
	if got := c.NumContainers(); got != 0 {
		t.Errorf("partial commit leaked: %d containers", got)
	}
}

func TestReleaseTask(t *testing.T) {
	c := newCluster()
	s := New(c)
	_ = s.Submit("j", "default", t0, TaskRequest{Count: 1, Demand: resource.New(1024, 1)})
	allocs := s.NodeHeartbeat(0, t0)
	if len(allocs) != 1 {
		t.Fatal("no alloc")
	}
	if err := s.ReleaseTask(allocs[0].Container, "default", allocs[0].Demand); err != nil {
		t.Fatal(err)
	}
	if got := s.QueueUsed("default"); !got.IsZero() {
		t.Errorf("queue used = %v after release", got)
	}
	if err := s.ReleaseTask("ghost", "default", resource.New(1, 1)); err == nil {
		t.Error("release of unknown container accepted")
	}
}

func TestHeartbeatUnavailableNode(t *testing.T) {
	c := newCluster()
	c.SetAvailable(0, false)
	s := New(c)
	_ = s.Submit("j", "default", t0, TaskRequest{Count: 1, Demand: resource.New(1024, 1)})
	if allocs := s.NodeHeartbeat(0, t0); len(allocs) != 0 {
		t.Errorf("allocated on down node: %v", allocs)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestTaskConstraintsAvoidViolatingNode: a task anti-affine to "db" skips
// the node hosting the db container and lands on a clean one.
func TestTaskConstraintsAvoidViolatingNode(t *testing.T) {
	c := newCluster()
	if err := c.Allocate(0, "db#0", resource.New(1024, 1), []constraint.Tag{"db"}); err != nil {
		t.Fatal(err)
	}
	s := New(c)
	req := TaskRequest{
		Count: 1, Demand: resource.New(1024, 1),
		Tags:        []constraint.Tag{"etl"},
		Constraints: []constraint.Constraint{constraint.New(constraint.AntiAffinity(constraint.E("etl"), constraint.E("db"), constraint.Node))},
	}
	if err := s.Submit("job", "default", t0, req); err != nil {
		t.Fatal(err)
	}
	// Heartbeat from the db node: the task must decline.
	if allocs := s.NodeHeartbeat(0, t0); len(allocs) != 0 {
		t.Fatalf("task placed on violating node: %v", allocs)
	}
	if s.Pending() != 1 {
		t.Fatalf("pending = %d", s.Pending())
	}
	// A clean node takes it.
	allocs := s.NodeHeartbeat(1, t0)
	if len(allocs) != 1 || allocs[0].Node != 1 {
		t.Fatalf("allocs = %v", allocs)
	}
}

// TestTaskConstraintsSoftOverride: when every node violates, the task
// eventually places anyway (constraints stay soft; R4 latency bound).
func TestTaskConstraintsSoftOverride(t *testing.T) {
	c := cluster.Grid(2, 2, resource.New(8192, 8))
	for n := 0; n < 2; n++ {
		id := cluster.MakeContainerID("db", n)
		if err := c.Allocate(cluster.NodeID(n), id, resource.New(1024, 1), []constraint.Tag{"db"}); err != nil {
			t.Fatal(err)
		}
	}
	s := New(c)
	req := TaskRequest{
		Count: 1, Demand: resource.New(1024, 1),
		Tags:        []constraint.Tag{"etl"},
		Constraints: []constraint.Constraint{constraint.New(constraint.AntiAffinity(constraint.E("etl"), constraint.E("db"), constraint.Node))},
	}
	if err := s.Submit("job", "default", t0, req); err != nil {
		t.Fatal(err)
	}
	placed := 0
	for round := 0; round <= MaxConstraintSkips && placed == 0; round++ {
		for n := 0; n < 2 && placed == 0; n++ {
			placed += len(s.NodeHeartbeat(cluster.NodeID(n), t0))
		}
	}
	if placed != 1 {
		t.Fatalf("constrained task never placed (placed=%d)", placed)
	}
}

// TestTaskConstraintValidation: malformed constraints are rejected at
// submission.
func TestTaskConstraintValidation(t *testing.T) {
	s := New(newCluster())
	req := TaskRequest{Count: 1, Demand: resource.New(1024, 1),
		Constraints: []constraint.Constraint{{}}}
	if err := s.Submit("job", "default", t0, req); err == nil {
		t.Error("invalid constraint accepted")
	}
}

// TestTaskConstraintsDoNotBlockOtherQueues: a blocked constrained head in
// one queue must not starve another queue on the same heartbeat.
func TestTaskConstraintsDoNotBlockOtherQueues(t *testing.T) {
	c := newCluster()
	if err := c.Allocate(0, "db#0", resource.New(1024, 1), []constraint.Tag{"db"}); err != nil {
		t.Fatal(err)
	}
	s := New(c, QueueConfig{Name: "a", Capacity: 0.5}, QueueConfig{Name: "b", Capacity: 0.5})
	blocked := TaskRequest{
		Count: 1, Demand: resource.New(1024, 1), Tags: []constraint.Tag{"etl"},
		Constraints: []constraint.Constraint{constraint.New(constraint.AntiAffinity(constraint.E("etl"), constraint.E("db"), constraint.Node))},
	}
	free := TaskRequest{Count: 1, Demand: resource.New(1024, 1)}
	_ = s.Submit("j1", "a", t0, blocked)
	_ = s.Submit("j2", "b", t0, free)
	allocs := s.NodeHeartbeat(0, t0)
	if len(allocs) != 1 || allocs[0].Queue != "b" {
		t.Fatalf("allocs = %v, want the unconstrained task from queue b", allocs)
	}
}
