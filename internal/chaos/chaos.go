// Package chaos injects node failures into a running simulation. Where
// package failure models *when* machines go down (the §2.3 unavailability
// traces), chaos makes them actually go down: it drives fail/recover
// transitions through the scheduler while the simulation runs, so the
// recovery loop is exercised live instead of placements being scored
// against an offline trace. Two drivers are provided: Injector draws
// per-node failures from an MTBF/MTTR profile, and ReplayTrace replays a
// failure.Trace hour by hour. Both are deterministic for a fixed seed and
// trace, per the simulator's reproducibility discipline (§7.1).
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/failure"
	"medea/internal/sim"
)

// Target is the scheduler-side surface chaos drives: core.Medea satisfies
// it (evictions are routed into its repair queue), and *cluster.Cluster
// can be adapted for scheduler-less experiments.
type Target interface {
	FailNode(node cluster.NodeID, now time.Time) []cluster.Eviction
	RecoverNode(node cluster.NodeID, now time.Time) bool
}

// Profile shapes random chaos: each node independently alternates between
// up periods drawn from Exp(MTBF) and down periods drawn from Exp(MTTR).
type Profile struct {
	// MTBF is the mean up time between a node's failures.
	MTBF time.Duration
	// MTTR is the mean down time before the node recovers.
	MTTR time.Duration
	// Seed fixes the randomness; the same seed yields the same failure
	// timeline regardless of what else the simulation does.
	Seed int64
}

// Event is one scheduled transition, for inspection in tests and reports.
type Event struct {
	At   time.Time
	Node cluster.NodeID
	Down bool // true = failure, false = recovery
}

// Injector drives a Profile against a Target through a sim.Engine.
type Injector struct {
	// Failures and Recoveries count transitions actually applied (a
	// scheduled failure of an already-down node applies but is a no-op at
	// the target and is still counted as scheduled in the timeline).
	Failures   int
	Recoveries int
	// Evicted counts containers evicted by injected failures.
	Evicted int

	timeline []Event
}

// Inject builds each node's failure timeline up to horizon and schedules
// it on the engine. Failures are only injected before the horizon;
// recoveries are scheduled even past it, so every injected failure is
// eventually healed and the simulation ends with all chaos-failed nodes
// back up. The full timeline is precomputed from the profile's seed, so
// it is identical across runs and independent of event interleaving. It
// returns the injector for counter inspection after the run.
func Inject(eng *sim.Engine, target Target, nodes []cluster.NodeID, p Profile, horizon time.Time) (*Injector, error) {
	if p.MTBF <= 0 || p.MTTR <= 0 {
		return nil, fmt.Errorf("chaos: profile needs positive MTBF and MTTR, got %v/%v", p.MTBF, p.MTTR)
	}
	in := &Injector{}
	start := eng.Now()
	for _, node := range nodes {
		rng := sim.RNG(p.Seed, fmt.Sprintf("chaos/node/%d", node))
		at := start
		for {
			at = at.Add(expDuration(rng, p.MTBF))
			if !at.Before(horizon) {
				break
			}
			in.schedule(eng, target, Event{At: at, Node: node, Down: true})
			at = at.Add(expDuration(rng, p.MTTR))
			in.schedule(eng, target, Event{At: at, Node: node, Down: false})
		}
	}
	return in, nil
}

func (in *Injector) schedule(eng *sim.Engine, target Target, ev Event) {
	in.timeline = append(in.timeline, ev)
	eng.At(ev.At, func(now time.Time) {
		if ev.Down {
			evs := target.FailNode(ev.Node, now)
			in.Failures++
			in.Evicted += len(evs)
		} else if target.RecoverNode(ev.Node, now) {
			in.Recoveries++
		}
	})
}

// expDuration draws an exponential duration with the given mean, floored
// at one second so timelines cannot degenerate into zero-length periods.
func expDuration(rng *rand.Rand, mean time.Duration) time.Duration {
	d := time.Duration(rng.ExpFloat64() * float64(mean))
	if d < time.Second {
		d = time.Second
	}
	return d
}

// Replay drives a failure.Trace against a Target: at every trace hour the
// per-SU down sets are recomputed and diffed against the previous hour,
// failing newly-down nodes and recovering newly-up ones. Nodes down in
// consecutive hours stay down — they are not re-failed.
type Replay struct {
	Failures   int
	Recoveries int
	Evicted    int

	down map[cluster.NodeID]bool
}

// ReplayTrace schedules the whole trace on the engine, starting at the
// engine's current time, with hourDur virtual time per trace hour (time
// compression: an hour of trace can elapse in a minute of virtual time).
// After the last hour every still-down node recovers. The cluster is only
// consulted for service-unit membership (failure.RegisterServiceUnits
// must have run). It returns the replay for counter inspection after the
// run.
func ReplayTrace(eng *sim.Engine, target Target, c *cluster.Cluster, tr *failure.Trace, hourDur time.Duration) (*Replay, error) {
	if hourDur <= 0 {
		return nil, fmt.Errorf("chaos: hour duration must be positive, got %v", hourDur)
	}
	members := make([][]cluster.NodeID, tr.SUs)
	for su := 0; su < tr.SUs; su++ {
		members[su] = c.SetMembers(constraint.ServiceUnit, cluster.SetID(su))
		if len(members[su]) == 0 {
			return nil, fmt.Errorf("chaos: service unit %d has no members; call failure.RegisterServiceUnits first", su)
		}
	}
	r := &Replay{down: make(map[cluster.NodeID]bool)}
	start := eng.Now()
	for h := 0; h < tr.Hours; h++ {
		hour := h
		eng.At(start.Add(time.Duration(hour)*hourDur), func(now time.Time) {
			want := make(map[cluster.NodeID]bool)
			for su := 0; su < tr.SUs; su++ {
				for _, n := range tr.DownNodes(hour, su, members[su]) {
					want[n] = true
				}
			}
			r.apply(target, want, now)
		})
	}
	eng.At(start.Add(time.Duration(tr.Hours)*hourDur), func(now time.Time) {
		r.apply(target, nil, now) // heal everything after the trace
	})
	return r, nil
}

// apply transitions the target from the current down set to want, in
// sorted node order so replays are bit-for-bit reproducible.
func (r *Replay) apply(target Target, want map[cluster.NodeID]bool, now time.Time) {
	var up, down []cluster.NodeID
	for n := range r.down {
		if !want[n] {
			up = append(up, n)
		}
	}
	for n := range want {
		if !r.down[n] {
			down = append(down, n)
		}
	}
	sort.Slice(up, func(i, j int) bool { return up[i] < up[j] })
	sort.Slice(down, func(i, j int) bool { return down[i] < down[j] })
	for _, n := range up {
		if target.RecoverNode(n, now) {
			r.Recoveries++
		}
		delete(r.down, n)
	}
	for _, n := range down {
		evs := target.FailNode(n, now)
		r.Failures++
		r.Evicted += len(evs)
		r.down[n] = true
	}
}

// ClusterTarget adapts a bare *cluster.Cluster as a Target for
// scheduler-less experiments (no repair loop; evictions are just lost).
type ClusterTarget struct{ C *cluster.Cluster }

// FailNode fails the node unless it is already down.
func (t ClusterTarget) FailNode(node cluster.NodeID, _ time.Time) []cluster.Eviction {
	if t.C.Node(node).State() == cluster.NodeDown {
		return nil
	}
	return t.C.FailNode(node)
}

// RecoverNode brings the node back up.
func (t ClusterTarget) RecoverNode(node cluster.NodeID, _ time.Time) bool {
	return t.C.RecoverNode(node)
}
