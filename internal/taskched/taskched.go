// Package taskched implements Medea's task-based scheduler substrate: a
// YARN-Capacity-Scheduler-style allocator with hierarchical queues, FIFO
// applications and heartbeat-driven container allocation (§3, §6). In
// Medea's two-scheduler design this component performs *all* actual
// allocations: its own task containers and, via Commit, the placements
// decided by the LRA scheduler (Figure 4, steps 2–3).
package taskched

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"medea/internal/cluster"
	"medea/internal/lra"
	"medea/internal/resource"
)

// QueueConfig declares one leaf queue under the root.
type QueueConfig struct {
	// Name identifies the queue (e.g. "prod", "batch").
	Name string
	// Capacity is the guaranteed share of cluster resources in (0,1].
	Capacity float64
	// MaxCapacity caps the queue's usage even when the cluster is idle
	// (work-conserving elasticity up to this bound); 0 means 1.0.
	MaxCapacity float64
}

// TaskRequest asks for count identical short-running containers.
type TaskRequest struct {
	Count  int
	Demand resource.Vector
	// Duration is the task runtime used by the simulator to schedule the
	// container's release; the scheduler itself only records it.
	Duration time.Duration
}

// Allocation reports one allocated container.
type Allocation struct {
	Container cluster.ContainerID
	App       string
	Queue     string
	Node      cluster.NodeID
	Demand    resource.Vector
	Duration  time.Duration
	// Latency is submission-to-allocation time, the paper's task
	// scheduling latency metric (Figure 11c).
	Latency time.Duration
}

// run is one TaskRequest still (partly) waiting in its queue: left
// identical tasks, the next of which takes seq. A queue holds one run
// per request, not one entry per task.
type run struct {
	app      string
	demand   resource.Vector
	duration time.Duration
	submit   time.Time
	seq      int
	left     int
}

// queue is a FIFO of runs consumed from runs[head]; a failed allocation
// leaves the head where it is.
type queue struct {
	cfg   QueueConfig
	runs  []run
	head  int
	used  resource.Vector
	owner cluster.Owner
}

// push appends a run, first sliding the waiting runs to the front of the
// array once at least half of it is consumed, so the array stays within
// twice the waiting runs.
func (q *queue) push(r run) {
	if q.head > 0 && 2*q.head >= len(q.runs) {
		n := copy(q.runs, q.runs[q.head:])
		clear(q.runs[n:])
		q.runs, q.head = q.runs[:n], 0
	}
	q.runs = append(q.runs, r)
}

// Scheduler is the task-based scheduler. It is the single writer of
// cluster state; the LRA scheduler only proposes placements.
type Scheduler struct {
	cluster *cluster.Cluster
	queues  map[string]*queue
	// order holds the queues sorted by name: the heartbeat's scan order.
	order   []*queue
	seq     int
	pending int
}

// New creates a scheduler over the cluster with the given queues. With no
// queues, a single "default" queue with full capacity is created. Each
// queue charges its tasks to a fresh cluster owner, so no other scheduler
// (a predecessor before core.Recover) can charge or free them.
func New(c *cluster.Cluster, cfgs ...QueueConfig) *Scheduler {
	s := &Scheduler{
		cluster: c,
		queues:  make(map[string]*queue),
	}
	if len(cfgs) == 0 {
		cfgs = []QueueConfig{{Name: "default", Capacity: 1}}
	}
	names := make([]string, 0, len(cfgs))
	for _, cfg := range cfgs {
		if cfg.MaxCapacity == 0 {
			cfg.MaxCapacity = 1
		}
		s.queues[cfg.Name] = &queue{cfg: cfg}
		names = append(names, cfg.Name)
	}
	sort.Strings(names)
	first := c.NewOwners(len(names))
	for i, name := range names {
		s.queues[name].owner = first + cluster.Owner(i)
		s.order = append(s.order, s.queues[name])
	}
	return s
}

// Submit enqueues task requests of an application on a queue. It is
// atomic: when any request is bad, none is enqueued.
func (s *Scheduler) Submit(appID, queueName string, now time.Time, reqs ...TaskRequest) error {
	q, ok := s.queues[queueName]
	if !ok {
		return fmt.Errorf("taskched: unknown queue %q", queueName)
	}
	for _, r := range reqs {
		if r.Count <= 0 || !r.Demand.IsPositive() {
			return fmt.Errorf("taskched: bad request %+v", r)
		}
	}
	for _, r := range reqs {
		q.push(run{app: appID, demand: r.Demand, duration: r.Duration, submit: now, seq: s.seq + 1, left: r.Count})
		s.seq += r.Count
		s.pending += r.Count
	}
	return nil
}

// Pending returns the number of queued (unallocated) tasks.
func (s *Scheduler) Pending() int { return s.pending }

// taskID names the container of an application's task seq: app#t<seq>,
// built in a stack buffer so the string is the only allocation.
func taskID(app string, seq int) cluster.ContainerID {
	var buf [64]byte
	b := append(append(buf[:0], app...), "#t"...)
	return cluster.ContainerID(strconv.AppendInt(b, int64(seq), 10))
}

// room returns how many containers of the positive demand d fit in free.
func room(free, d resource.Vector) int {
	return int(min(free.MemoryMB/d.MemoryMB, free.VCores/d.VCores))
}

// NodeHeartbeat processes one node heartbeat: the scheduler assigns as
// many queued tasks to the node as fit, drawing from the most under-served
// queue first (capacity-scheduler ordering), FIFO within a queue.
func (s *Scheduler) NodeHeartbeat(node cluster.NodeID, now time.Time) []Allocation {
	n := s.cluster.Node(node)
	if !n.Available() {
		return nil
	}
	var allocs []Allocation
	total := s.cluster.TotalCapacity().Scalar()
	for {
		// Pick the queue with the smallest used/capacity ratio that has a
		// pending task fitting this node and headroom under MaxCapacity.
		var best *queue
		bestRatio := 0.0
		for _, q := range s.order {
			if q.head == len(q.runs) {
				continue
			}
			head := &q.runs[q.head]
			if !head.demand.Fits(n.Free()) {
				continue
			}
			usedAfter := float64(q.used.Add(head.demand).Scalar())
			if total > 0 && usedAfter/float64(total) > q.cfg.MaxCapacity {
				continue
			}
			ratio := 0.0
			if total > 0 {
				ratio = float64(q.used.Scalar()) / (float64(total) * q.cfg.Capacity)
			}
			if best == nil || ratio < bestRatio {
				best, bestRatio = q, ratio
			}
		}
		if best == nil {
			return allocs
		}
		task := &best.runs[best.head]
		id := taskID(task.app, task.seq)
		if err := s.cluster.AllocateOwned(node, id, task.demand, nil, best.owner); err != nil {
			// Lost a race with external state change; the task stays at
			// the head of its queue.
			return allocs
		}
		best.used = best.used.Add(task.demand)
		if allocs == nil {
			// Sized for the tasks like this one that the node still has
			// room for, so a node of equal tasks fills one array.
			allocs = make([]Allocation, 0, 1+min(s.pending-1, room(n.Free(), task.demand)))
		}
		allocs = append(allocs, Allocation{
			Container: id, App: task.app, Queue: best.cfg.Name, Node: node,
			Demand: task.demand, Duration: task.duration, Latency: now.Sub(task.submit),
		})
		s.pending--
		task.seq++
		if task.left--; task.left == 0 {
			*task = run{}
			if best.head++; best.head == len(best.runs) {
				best.runs, best.head = best.runs[:0], 0
			}
		}
	}
}

// ErrConflict is returned by Commit when the cluster state changed between
// the LRA scheduler's decision and the allocation attempt; Medea then
// resubmits the LRA (§5.4 "Placement conflicts").
var ErrConflict = errors.New("taskched: placement conflicts with current cluster state")

// Commit atomically allocates an LRA placement through the task-based
// scheduler (Figure 4, step 2→3). If any container no longer fits, the
// whole placement is rolled back and ErrConflict returned.
func (s *Scheduler) Commit(assignments []lra.Assignment) error {
	for i, a := range assignments {
		if err := s.cluster.Allocate(a.Node, a.Container, a.Demand, a.Tags); err != nil {
			for _, done := range assignments[:i] {
				if rerr := s.cluster.Release(done.Container); rerr != nil {
					panic(rerr) // unreachable: releasing our own allocation
				}
			}
			return fmt.Errorf("%w: %v", ErrConflict, err)
		}
	}
	return nil
}

// ReleaseTask frees a finished task container of queueName and refunds
// the queue the demand recorded at allocation, not the one passed. It
// refuses, changing nothing, any container not allocated as such a task.
func (s *Scheduler) ReleaseTask(id cluster.ContainerID, queueName string, _ resource.Vector) error {
	q, ok := s.queues[queueName]
	if !ok {
		return fmt.Errorf("taskched: unknown queue %q", queueName)
	}
	d, err := s.cluster.ReleaseOwned(id, q.owner)
	if err == nil {
		q.used = q.used.Sub(d)
	}
	return err
}

// HandleEvictions refunds queue accounting for task containers the
// cluster evicted (node failure). Without this, a failed node's task
// containers would stay charged to their queues forever, silently
// shrinking the queues' effective capacity. Evictions of containers the
// task scheduler does not own are ignored.
func (s *Scheduler) HandleEvictions(evs []cluster.Eviction) int {
	n := 0
	for _, ev := range evs {
		// The queues' owners are consecutive, in s.order.
		if i := int(ev.Owner - s.order[0].owner); i >= 0 && i < len(s.order) {
			s.order[i].used = s.order[i].used.Sub(ev.Demand)
			n++
		}
	}
	return n
}

// QueueUsed returns the resources charged to a queue.
func (s *Scheduler) QueueUsed(name string) resource.Vector {
	if q, ok := s.queues[name]; ok {
		return q.used
	}
	return resource.Vector{}
}

// Queues returns the configured queue names, sorted. Invariant checkers
// iterate it to verify queue accounting stays non-negative.
func (s *Scheduler) Queues() []string {
	names := make([]string, len(s.order))
	for i, q := range s.order {
		names[i] = q.cfg.Name
	}
	return names
}
