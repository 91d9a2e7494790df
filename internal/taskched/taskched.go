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
	"time"

	"medea/internal/cluster"
	"medea/internal/constraint"
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
	// Tags optionally label the containers (task containers normally have
	// none; LRA containers are committed via Commit instead).
	Tags []constraint.Tag
	// Constraints optionally restrict task placement. They are honoured
	// heuristically at heartbeat time — a node that would violate them is
	// skipped — without involving the LRA scheduler, the §5.4 extension
	// for task-based jobs. After MaxConstraintSkips skipped opportunities
	// the task places anyway (constraints stay soft).
	Constraints []constraint.Constraint
}

// MaxConstraintSkips bounds how many heartbeat opportunities a
// constrained task may decline before placing regardless; this keeps
// task scheduling latency bounded (requirement R4).
const MaxConstraintSkips = 64

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

type pendingTask struct {
	app         string
	queue       string
	seq         int
	demand      resource.Vector
	duration    time.Duration
	tags        []constraint.Tag
	constraints []constraint.Constraint
	skips       int
	submit      time.Time
}

type queue struct {
	cfg  QueueConfig
	fifo []*pendingTask
	used resource.Vector
}

// Scheduler is the task-based scheduler. It is the single writer of
// cluster state; the LRA scheduler only proposes placements.
type Scheduler struct {
	cluster *cluster.Cluster
	queues  map[string]*queue
	order   []string
	seq     int
	// owners maps live task containers to their queue accounting, so
	// evictions (node failures) can refund the right queue. LRA containers
	// committed via Commit are not charged to queues and are absent here.
	owners map[cluster.ContainerID]taskOwner

	// Latencies accumulates task allocation latencies.
	Latencies []time.Duration
}

type taskOwner struct {
	queue  string
	demand resource.Vector
}

// New creates a scheduler over the cluster with the given queues. With no
// queues, a single "default" queue with full capacity is created.
func New(c *cluster.Cluster, cfgs ...QueueConfig) *Scheduler {
	s := &Scheduler{
		cluster: c,
		queues:  make(map[string]*queue),
		owners:  make(map[cluster.ContainerID]taskOwner),
	}
	if len(cfgs) == 0 {
		cfgs = []QueueConfig{{Name: "default", Capacity: 1}}
	}
	for _, cfg := range cfgs {
		if cfg.MaxCapacity == 0 {
			cfg.MaxCapacity = 1
		}
		s.queues[cfg.Name] = &queue{cfg: cfg}
		s.order = append(s.order, cfg.Name)
	}
	sort.Strings(s.order)
	return s
}

// Submit enqueues task requests of an application on a queue.
func (s *Scheduler) Submit(appID, queueName string, now time.Time, reqs ...TaskRequest) error {
	q, ok := s.queues[queueName]
	if !ok {
		return fmt.Errorf("taskched: unknown queue %q", queueName)
	}
	for _, r := range reqs {
		if r.Count <= 0 || !r.Demand.IsPositive() {
			return fmt.Errorf("taskched: bad request %+v", r)
		}
		for _, c := range r.Constraints {
			if err := c.Validate(); err != nil {
				return fmt.Errorf("taskched: %w", err)
			}
		}
		for i := 0; i < r.Count; i++ {
			s.seq++
			q.fifo = append(q.fifo, &pendingTask{
				app: appID, queue: queueName, seq: s.seq,
				demand: r.Demand, duration: r.Duration, tags: r.Tags,
				constraints: r.Constraints, submit: now,
			})
		}
	}
	return nil
}

// Pending returns the number of queued (unallocated) tasks.
func (s *Scheduler) Pending() int {
	n := 0
	for _, q := range s.queues {
		n += len(q.fifo)
	}
	return n
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
		for _, name := range s.order {
			q := s.queues[name]
			if len(q.fifo) == 0 {
				continue
			}
			head := q.fifo[0]
			if !head.demand.Fits(n.Free()) {
				continue
			}
			if len(head.constraints) > 0 && head.skips < MaxConstraintSkips &&
				s.wouldViolate(head, node) {
				head.skips++
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
		task := best.fifo[0]
		best.fifo = best.fifo[1:]
		id := cluster.ContainerID(fmt.Sprintf("%s#t%d", task.app, task.seq))
		if err := s.cluster.Allocate(node, id, task.demand, task.tags); err != nil {
			// Lost a race with external state change; requeue at the front.
			best.fifo = append([]*pendingTask{task}, best.fifo...)
			return allocs
		}
		best.used = best.used.Add(task.demand)
		s.owners[id] = taskOwner{queue: task.queue, demand: task.demand}
		lat := now.Sub(task.submit)
		s.Latencies = append(s.Latencies, lat)
		allocs = append(allocs, Allocation{
			Container: id, App: task.app, Queue: task.queue, Node: node,
			Demand: task.demand, Duration: task.duration, Latency: lat,
		})
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
	var donePrefix []cluster.ContainerID
	for _, a := range assignments {
		if err := s.cluster.Allocate(a.Node, a.Container, a.Demand, a.Tags); err != nil {
			for _, id := range donePrefix {
				if rerr := s.cluster.Release(id); rerr != nil {
					panic(rerr) // unreachable: releasing our own allocation
				}
			}
			return fmt.Errorf("%w: %v", ErrConflict, err)
		}
		donePrefix = append(donePrefix, a.Container)
	}
	return nil
}

// ReleaseTask frees a finished task container and returns its resources
// to the owning queue's accounting.
func (s *Scheduler) ReleaseTask(id cluster.ContainerID, queueName string, demand resource.Vector) error {
	if err := s.cluster.Release(id); err != nil {
		return err
	}
	if q, ok := s.queues[queueName]; ok {
		q.used = q.used.Sub(demand)
	}
	delete(s.owners, id)
	return nil
}

// HandleEvictions refunds queue accounting for task containers the
// cluster evicted (node failure). Without this, a failed node's task
// containers would stay charged to their queues forever, silently
// shrinking the queues' effective capacity. Evictions of containers the
// task scheduler does not own are ignored.
func (s *Scheduler) HandleEvictions(evs []cluster.Eviction) int {
	n := 0
	for _, ev := range evs {
		o, ok := s.owners[ev.Container]
		if !ok {
			continue
		}
		if q, qok := s.queues[o.queue]; qok {
			q.used = q.used.Sub(o.demand)
		}
		delete(s.owners, ev.Container)
		n++
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
	return append([]string(nil), s.order...)
}

// wouldViolate reports whether placing the task on the node would create
// a new violation of its own constraints (heuristic, subject-side check).
func (s *Scheduler) wouldViolate(t *pendingTask, node cluster.NodeID) bool {
	entries := make([]constraint.Entry, len(t.constraints))
	for i, c := range t.constraints {
		entries[i] = constraint.Entry{AppID: t.app, Source: constraint.SourceApplication, Constraint: c}
	}
	return lra.ScoreNode(s.cluster, entries, t.tags, node) > 1e-12
}
