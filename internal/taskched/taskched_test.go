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

// TestSubmitIsAtomic: a bad request after a good one in the same Submit
// enqueues neither and takes no sequence numbers.
func TestSubmitIsAtomic(t *testing.T) {
	s := New(newCluster())
	good := TaskRequest{Count: 3, Demand: resource.New(1024, 1)}
	for _, bad := range []TaskRequest{{Count: 0, Demand: resource.New(1, 1)}, {Count: 1, Demand: resource.New(0, 1)}} {
		if err := s.Submit("j", "default", t0, good, bad); err == nil {
			t.Fatalf("bad request %+v accepted", bad)
		}
		if got := s.Pending(); got != 0 {
			t.Fatalf("Pending = %d after a rejected Submit", got)
		}
		if allocs := s.NodeHeartbeat(0, t0); len(allocs) != 0 {
			t.Fatalf("rejected Submit allocated %v", allocs)
		}
	}
	if err := s.Submit("j", "default", t0, good); err != nil {
		t.Fatal(err)
	}
	if allocs := s.NodeHeartbeat(0, t0); len(allocs) != 3 || allocs[0].Container != "j#t1" {
		t.Fatalf("allocations after a rejected Submit: %+v", allocs)
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
	c.FailNode(0)
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
