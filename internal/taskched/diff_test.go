package taskched

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/resource"
)

// refScheduler is the reference model of the run-length queues: the
// per-task queue the scheduler had before, one heap entry per task and
// a failed allocation put back at the front of its FIFO. It keeps its
// own owner map, from which it refunds queues, rather than reading the
// cluster's records.
type refScheduler struct {
	cluster *cluster.Cluster
	queues  map[string]*refQueue
	order   []string
	seq     int
	owners  map[cluster.ContainerID]refOwner
}

type refOwner struct {
	queue  string
	demand resource.Vector
}

type refTask struct {
	app      string
	queue    string
	seq      int
	demand   resource.Vector
	duration time.Duration
	submit   time.Time
}

type refQueue struct {
	cfg   QueueConfig
	fifo  []*refTask
	used  resource.Vector
	owner cluster.Owner
}

func newRef(c *cluster.Cluster, cfgs ...QueueConfig) *refScheduler {
	s := &refScheduler{cluster: c, queues: make(map[string]*refQueue), owners: make(map[cluster.ContainerID]refOwner)}
	for _, cfg := range cfgs {
		if cfg.MaxCapacity == 0 {
			cfg.MaxCapacity = 1
		}
		s.queues[cfg.Name] = &refQueue{cfg: cfg}
		s.order = append(s.order, cfg.Name)
	}
	sort.Strings(s.order)
	// The same owners the Scheduler takes, so the two clusters' records
	// compare equal.
	first := c.NewOwners(len(s.order))
	for i, name := range s.order {
		s.queues[name].owner = first + cluster.Owner(i)
	}
	return s
}

func (s *refScheduler) submit(appID, queueName string, now time.Time, reqs ...TaskRequest) {
	q := s.queues[queueName]
	for _, r := range reqs {
		for i := 0; i < r.Count; i++ {
			s.seq++
			q.fifo = append(q.fifo, &refTask{
				app: appID, queue: queueName, seq: s.seq,
				demand: r.Demand, duration: r.Duration, submit: now,
			})
		}
	}
}

func (s *refScheduler) pending() int {
	n := 0
	for _, q := range s.queues {
		n += len(q.fifo)
	}
	return n
}

func (s *refScheduler) nodeHeartbeat(node cluster.NodeID, now time.Time) []Allocation {
	n := s.cluster.Node(node)
	if !n.Available() {
		return nil
	}
	var allocs []Allocation
	total := s.cluster.TotalCapacity().Scalar()
	for {
		var best *refQueue
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
		id := cluster.ContainerID(task.app + "#t" + strconv.Itoa(task.seq))
		if err := s.cluster.AllocateOwned(node, id, task.demand, nil, best.owner); err != nil {
			best.fifo = append([]*refTask{task}, best.fifo...)
			return allocs
		}
		best.used = best.used.Add(task.demand)
		s.owners[id] = refOwner{queue: task.queue, demand: task.demand}
		allocs = append(allocs, Allocation{
			Container: id, App: task.app, Queue: task.queue, Node: node,
			Demand: task.demand, Duration: task.duration, Latency: now.Sub(task.submit),
		})
	}
}

func (s *refScheduler) releaseTask(id cluster.ContainerID, queueName string) error {
	o, ok := s.owners[id]
	if !ok || o.queue != queueName {
		return fmt.Errorf("reference: %s is no task of queue %q", id, queueName)
	}
	if err := s.cluster.Release(id); err != nil {
		return err
	}
	s.queues[queueName].used = s.queues[queueName].used.Sub(o.demand)
	delete(s.owners, id)
	return nil
}

func (s *refScheduler) handleEvictions(evs []cluster.Eviction) int {
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

// TestRunLengthQueueMatchesReference drives the Scheduler and refScheduler,
// each over its own cluster, through the same seeded mix of submissions
// to three queues with capacities and caps, heartbeats, releases, node
// failures with HandleEvictions, and forced Allocate failures (a
// container taking the ID the next task of a queue will ask for). After
// every call both give the same Allocation sequence — ID, node, queue,
// Latency and the rest — the same Pending and the same QueueUsed, and
// their clusters have no Diff.
func TestRunLengthQueueMatchesReference(t *testing.T) {
	cfgs := []QueueConfig{
		{Name: "prod", Capacity: 0.5, MaxCapacity: 0.7},
		{Name: "batch", Capacity: 0.3},
		{Name: "adhoc", Capacity: 0.2, MaxCapacity: 0.3},
	}
	demands := []resource.Vector{resource.New(1024, 1), resource.New(2048, 1), resource.New(512, 2), resource.New(3072, 3)}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		gotC, wantC := cluster.Grid(8, 4, resource.New(8192, 8)), cluster.Grid(8, 4, resource.New(8192, 8))
		got, want := New(gotC, cfgs...), newRef(wantC, cfgs...)
		now := t0
		var live []Allocation
		var blockers []cluster.ContainerID
		check := func(step int, op string) {
			t.Helper()
			if g, w := got.Pending(), want.pending(); g != w {
				t.Fatalf("seed %d step %d %s: Pending %d, reference %d", seed, step, op, g, w)
			}
			for _, cfg := range cfgs {
				if g, w := got.QueueUsed(cfg.Name), want.queues[cfg.Name].used; g != w {
					t.Fatalf("seed %d step %d %s: QueueUsed(%s) %v, reference %v", seed, step, op, cfg.Name, g, w)
				}
			}
			if d := gotC.Diff(wantC); d != "" {
				t.Fatalf("seed %d step %d %s: clusters differ: %s", seed, step, op, d)
			}
		}
		for step := 0; step < 400; step++ {
			now = now.Add(time.Duration(rng.Intn(300)) * time.Millisecond)
			node := cluster.NodeID(rng.Intn(gotC.NumNodes()))
			switch r := rng.Intn(20); {
			case r < 5:
				app := fmt.Sprintf("job-%d", step)
				q := cfgs[rng.Intn(len(cfgs))].Name
				reqs := make([]TaskRequest, 1+rng.Intn(3))
				for i := range reqs {
					reqs[i] = TaskRequest{
						Count:    1 + rng.Intn(12),
						Demand:   demands[rng.Intn(len(demands))],
						Duration: time.Duration(rng.Intn(5000)) * time.Millisecond,
					}
				}
				if err := got.Submit(app, q, now, reqs...); err != nil {
					t.Fatal(err)
				}
				want.submit(app, q, now, reqs...)
				check(step, "submit")
			case r < 12:
				g, w := got.NodeHeartbeat(node, now), want.nodeHeartbeat(node, now)
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d step %d: heartbeat on %d:\n got  %+v\n want %+v", seed, step, node, g, w)
				}
				live = append(live, g...)
				check(step, "heartbeat")
			case r < 16 && len(live) > 0:
				k := rng.Intn(len(live))
				a := live[k]
				live = append(live[:k], live[k+1:]...)
				if err := got.ReleaseTask(a.Container, a.Queue, a.Demand); err != nil {
					t.Fatal(err)
				}
				if err := want.releaseTask(a.Container, a.Queue); err != nil {
					t.Fatal(err)
				}
				check(step, "release")
			case r < 18:
				// Take the ID the head task of a queue will ask for, so
				// its next Allocate fails until the blocker is released.
				q := want.queues[cfgs[rng.Intn(len(cfgs))].Name]
				if len(q.fifo) == 0 {
					continue
				}
				id := cluster.ContainerID(q.fifo[0].app + "#t" + strconv.Itoa(q.fifo[0].seq))
				e1 := gotC.Allocate(node, id, resource.New(1, 1), nil)
				e2 := wantC.Allocate(node, id, resource.New(1, 1), nil)
				if (e1 == nil) != (e2 == nil) {
					t.Fatalf("seed %d step %d: blocker %s: %v, %v", seed, step, id, e1, e2)
				}
				if e1 == nil {
					blockers = append(blockers, id)
				}
				check(step, "block")
			case r < 19 && len(blockers) > 0:
				id := blockers[0]
				blockers = blockers[1:]
				if err := gotC.Release(id); err != nil {
					t.Fatal(err)
				}
				if err := wantC.Release(id); err != nil {
					t.Fatal(err)
				}
				check(step, "unblock")
			case r == 19:
				evs, wevs := gotC.FailNode(node), wantC.FailNode(node)
				if g, w := got.HandleEvictions(evs), want.handleEvictions(wevs); g != w {
					t.Fatalf("seed %d step %d: HandleEvictions %d, reference %d", seed, step, g, w)
				}
				gone := make(map[cluster.ContainerID]bool)
				for _, ev := range evs {
					gone[ev.Container] = true
				}
				kept := live[:0]
				for _, a := range live {
					if !gone[a.Container] {
						kept = append(kept, a)
					}
				}
				live = kept
				keptIDs := blockers[:0]
				for _, id := range blockers {
					if !gone[id] {
						keptIDs = append(keptIDs, id)
					}
				}
				blockers = keptIDs
				check(step, "fail")
				if rng.Intn(2) == 0 {
					gotC.RecoverNode(node)
					wantC.RecoverNode(node)
				}
			}
		}
		for n := 0; n < gotC.NumNodes(); n++ {
			gotC.RecoverNode(cluster.NodeID(n))
			wantC.RecoverNode(cluster.NodeID(n))
		}
		for _, id := range blockers {
			if err := gotC.Release(id); err != nil {
				t.Fatal(err)
			}
			if err := wantC.Release(id); err != nil {
				t.Fatal(err)
			}
		}
		for _, a := range live {
			if err := got.ReleaseTask(a.Container, a.Queue, a.Demand); err != nil {
				t.Fatal(err)
			}
			if err := want.releaseTask(a.Container, a.Queue); err != nil {
				t.Fatal(err)
			}
		}
		// Drain both: every queued task is allocated in the same order.
		for round := 0; got.Pending() > 0 && round < 100; round++ {
			for n := 0; n < gotC.NumNodes(); n++ {
				g, w := got.NodeHeartbeat(cluster.NodeID(n), now), want.nodeHeartbeat(cluster.NodeID(n), now)
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d drain: heartbeat on %d:\n got  %+v\n want %+v", seed, n, g, w)
				}
				for _, a := range g {
					if err := got.ReleaseTask(a.Container, a.Queue, a.Demand); err != nil {
						t.Fatal(err)
					}
					if err := want.releaseTask(a.Container, a.Queue); err != nil {
						t.Fatal(err)
					}
				}
			}
			now = now.Add(time.Second)
		}
		check(-1, "drain")
		if got.Pending() != 0 {
			t.Fatalf("seed %d: %d tasks still pending after the drain", seed, got.Pending())
		}
	}
}
