package taskched

import (
	"errors"
	"sort"
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

// TestReleaseTaskRefusesOtherContainers: ReleaseTask frees only a task
// container the scheduler allocated, under the queue it was charged to,
// and refunds the demand recorded at allocation. An LRA container, a
// task named under another or an unknown queue and an unknown ID are
// refused, and the refusal changes nothing.
func TestReleaseTaskRefusesOtherContainers(t *testing.T) {
	c := newCluster()
	s := New(c, QueueConfig{Name: "prod", Capacity: 0.5}, QueueConfig{Name: "batch", Capacity: 0.5})
	lraDemand := resource.New(2048, 1)
	if err := s.Commit([]lra.Assignment{{Container: "a1#0", Node: 0, Demand: lraDemand, Tags: []constraint.Tag{"a1"}}}); err != nil {
		t.Fatal(err)
	}
	_ = s.Submit("j", "prod", t0, TaskRequest{Count: 1, Demand: resource.New(1024, 1)})
	allocs := s.NodeHeartbeat(1, t0)
	if len(allocs) != 1 {
		t.Fatalf("allocated %d tasks, want 1", len(allocs))
	}
	task := allocs[0]
	before := c.Clone()
	for _, tc := range []struct {
		name  string
		id    cluster.ContainerID
		queue string
	}{
		{"LRA container", "a1#0", "prod"},
		{"LRA container, unknown queue", "a1#0", "nosuch"},
		{"task under another queue", task.Container, "batch"},
		{"task under an unknown queue", task.Container, "nosuch"},
		{"unknown container", "ghost", "prod"},
	} {
		if err := s.ReleaseTask(tc.id, tc.queue, lraDemand); err == nil {
			t.Errorf("%s: ReleaseTask(%s, %s) accepted", tc.name, tc.id, tc.queue)
		}
		if d := c.Diff(before); d != "" {
			t.Errorf("%s: the refused release changed the cluster: %s", tc.name, d)
		}
		if got, want := s.QueueUsed("prod"), task.Demand; got != want {
			t.Errorf("%s: prod used %v, want %v", tc.name, got, want)
		}
		if got := s.QueueUsed("batch"); !got.IsZero() {
			t.Errorf("%s: batch used %v, want zero", tc.name, got)
		}
	}
	// The demand argument is not what is refunded: the record's is.
	if err := s.ReleaseTask(task.Container, "prod", resource.New(1, 1)); err != nil {
		t.Fatal(err)
	}
	if got := s.QueueUsed("prod"); !got.IsZero() {
		t.Errorf("prod used %v after the release, want zero", got)
	}
	if _, ok := c.ContainerNode("a1#0"); !ok {
		t.Error("the LRA container is gone")
	}
}

// TestEvictionsReportNodeContainers: DrainNode and FailNode on a node
// holding LRA containers and tasks of two queues report exactly that
// node's containers, sorted by ID, each with its owner: 0 for an LRA
// container, one value per queue for a task. HandleEvictions refunds each
// task's queue and passes over the LRA containers.
func TestEvictionsReportNodeContainers(t *testing.T) {
	c := newCluster()
	s := New(c, QueueConfig{Name: "prod", Capacity: 0.5}, QueueConfig{Name: "batch", Capacity: 0.5})
	lraDemand := resource.New(2048, 1)
	if err := s.Commit([]lra.Assignment{
		{Container: "b#0", Node: 0, Demand: lraDemand, Tags: []constraint.Tag{"b"}},
		{Container: "a#0", Node: 1, Demand: lraDemand, Tags: []constraint.Tag{"a"}},
		{Container: "a#1", Node: 0, Demand: lraDemand, Tags: []constraint.Tag{"a"}},
	}); err != nil {
		t.Fatal(err)
	}
	owner := map[cluster.ContainerID]string{"b#0": "", "a#1": ""}
	heartbeat := func(node cluster.NodeID, reqs map[string]TaskRequest) []Allocation {
		for _, q := range []string{"prod", "batch"} {
			if err := s.Submit(q+"-job", q, t0, reqs[q]); err != nil {
				t.Fatal(err)
			}
		}
		allocs := s.NodeHeartbeat(node, t0)
		if len(allocs) != reqs["prod"].Count+reqs["batch"].Count {
			t.Fatalf("node %d: allocated %d tasks, want all %d", node, len(allocs), reqs["prod"].Count+reqs["batch"].Count)
		}
		return allocs
	}
	for _, a := range heartbeat(0, map[string]TaskRequest{
		"prod":  {Count: 2, Demand: resource.New(1024, 1)},
		"batch": {Count: 2, Demand: resource.New(512, 1)},
	}) {
		owner[a.Container] = a.Queue
	}
	kept := heartbeat(1, map[string]TaskRequest{
		"prod":  {Count: 1, Demand: resource.New(1024, 1)},
		"batch": {Count: 1, Demand: resource.New(512, 1)},
	})
	var want []cluster.ContainerID
	for id := range owner {
		want = append(want, id)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	check := func(op string, evs []cluster.Eviction) {
		t.Helper()
		if len(evs) != len(want) {
			t.Fatalf("%s reported %d containers, want %v", op, len(evs), want)
		}
		byQueue := map[string]cluster.Owner{}
		for i, ev := range evs {
			if ev.Container != want[i] || ev.Node != 0 {
				t.Fatalf("%s: eviction %d is %s on node %d, want %s on node 0", op, i, ev.Container, ev.Node, want[i])
			}
			q := owner[ev.Container]
			if o, seen := byQueue[q]; (ev.Owner == 0) != (q == "") || seen && o != ev.Owner {
				t.Errorf("%s: %s of queue %q has owner %d", op, ev.Container, q, ev.Owner)
			}
			byQueue[q] = ev.Owner
		}
		if byQueue["prod"] == byQueue["batch"] {
			t.Errorf("%s: both queues report owner %d", op, byQueue["prod"])
		}
	}
	check("DrainNode", c.DrainNode(0))
	evs := c.FailNode(0)
	check("FailNode", evs)
	if n := s.HandleEvictions(evs); n != 4 {
		t.Errorf("HandleEvictions refunded %d tasks, want 4", n)
	}
	for _, a := range kept {
		if got := s.QueueUsed(a.Queue); got != a.Demand {
			t.Errorf("queue %s uses %v after the failure, want its task on node 1, %v", a.Queue, got, a.Demand)
		}
	}
	if err := c.CheckAccounting(); err != nil {
		t.Error(err)
	}
}
