package chaos_test

import (
	"testing"
	"time"

	"medea/internal/chaos"
	"medea/internal/cluster"
	"medea/internal/core"
	"medea/internal/failure"
	"medea/internal/lra"
	"medea/internal/resource"
	"medea/internal/sim"
)

// recorder is a Target that logs transitions without a cluster.
type recorder struct {
	events []string
	down   map[cluster.NodeID]bool
}

func newRecorder() *recorder { return &recorder{down: make(map[cluster.NodeID]bool)} }

func (r *recorder) FailNode(n cluster.NodeID, now time.Time) []cluster.Eviction {
	r.events = append(r.events, "fail")
	r.down[n] = true
	return nil
}

func (r *recorder) RecoverNode(n cluster.NodeID, now time.Time) bool {
	r.events = append(r.events, "recover")
	was := r.down[n]
	delete(r.down, n)
	return was
}

// TestInjectorDeterministic: the same seed yields the same timeline; a
// different seed yields a different one.
func TestInjectorDeterministic(t *testing.T) {
	nodes := []cluster.NodeID{0, 1, 2, 3}
	p := chaos.Profile{MTBF: time.Hour, MTTR: 10 * time.Minute, Seed: 42}
	timeline := func(seed int64) []chaos.Event {
		eng := sim.NewEngine(time.Time{})
		p := p
		p.Seed = seed
		in, err := chaos.Inject(eng, newRecorder(), nodes, p, eng.Now().Add(24*time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		return in.Timeline()
	}
	a, b := timeline(42), timeline(42)
	if len(a) == 0 {
		t.Fatal("empty timeline over 24h with MTBF 1h")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := timeline(7)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical timelines")
	}
}

// TestInjectorHorizonAndHealing: no failures are injected at or past the
// horizon, every failure has a matching recovery, and the run therefore
// ends with all nodes up.
func TestInjectorHorizonAndHealing(t *testing.T) {
	eng := sim.NewEngine(time.Time{})
	horizon := eng.Now().Add(12 * time.Hour)
	rec := newRecorder()
	in, err := chaos.Inject(eng, rec, []cluster.NodeID{0, 1, 2}, chaos.Profile{
		MTBF: time.Hour, MTTR: 30 * time.Minute, Seed: 1,
	}, horizon)
	if err != nil {
		t.Fatal(err)
	}
	fails, recovers := 0, 0
	for _, ev := range in.Timeline() {
		if ev.Down {
			fails++
			if !ev.At.Before(horizon) {
				t.Errorf("failure scheduled at %v, horizon %v", ev.At, horizon)
			}
		} else {
			recovers++
		}
	}
	if fails == 0 || fails != recovers {
		t.Fatalf("timeline fails=%d recovers=%d, want equal and nonzero", fails, recovers)
	}
	eng.Run(0)
	if len(rec.down) != 0 {
		t.Errorf("%d nodes still down after the run", len(rec.down))
	}
	if in.Failures != fails || in.Recoveries != recovers {
		t.Errorf("applied %d/%d of %d/%d scheduled", in.Failures, in.Recoveries, fails, recovers)
	}
}

func TestInjectorRejectsBadProfile(t *testing.T) {
	eng := sim.NewEngine(time.Time{})
	if _, err := chaos.Inject(eng, newRecorder(), nil, chaos.Profile{MTTR: time.Second}, eng.Now()); err == nil {
		t.Error("zero MTBF accepted")
	}
}

// TestReplayTraceDiffs: consecutive hours with overlapping down sets only
// transition the difference, and the trace end heals everything.
func TestReplayTraceDiffs(t *testing.T) {
	c := cluster.Grid(8, 4, resource.New(16384, 8))
	if err := failure.RegisterServiceUnits(c, 2); err != nil {
		t.Fatal(err)
	}
	tr := failure.Generate(sim.RNG(3, "trace"), failure.Config{
		ServiceUnits: 2, Hours: 48, SpikeStartProb: 0.2, BaselineMean: 0.05,
	})
	eng := sim.NewEngine(time.Time{})
	r, err := chaos.ReplayTrace(eng, chaos.ClusterTarget{C: c}, c, tr, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(0)
	if r.Failures == 0 {
		t.Fatal("aggressive trace replayed zero failures")
	}
	if r.Down() != 0 {
		t.Errorf("%d nodes down after trace end", r.Down())
	}
	if r.Failures != r.Recoveries {
		t.Errorf("failures=%d recoveries=%d, want balanced after healing", r.Failures, r.Recoveries)
	}
	for n := 0; n < c.NumNodes(); n++ {
		if !c.Node(cluster.NodeID(n)).Available() {
			t.Errorf("node %d not available after replay", n)
		}
	}
}

// TestReplayNeedsServiceUnits: replay refuses a cluster without registered
// SUs instead of silently failing nothing.
func TestReplayNeedsServiceUnits(t *testing.T) {
	c := cluster.Grid(4, 2, resource.New(1024, 2))
	tr := failure.Generate(sim.RNG(1, "t"), failure.Config{ServiceUnits: 2, Hours: 2})
	if _, err := chaos.ReplayTrace(sim.NewEngine(time.Time{}), chaos.ClusterTarget{C: c}, c, tr, time.Minute); err == nil {
		t.Error("replay without service units accepted")
	}
}

// TestInjectorDrivesMedeaRecovery is the end-to-end wiring test: random
// chaos against a live Medea, with the tick loop repairing as it goes.
// After the horizon (all chaos healed), no LRA may remain degraded.
func TestInjectorDrivesMedeaRecovery(t *testing.T) {
	c := cluster.Grid(12, 4, resource.New(16384, 8))
	m := core.New(c, lra.NewSerial(), core.Config{Interval: 10 * time.Second})
	eng := sim.NewEngine(time.Time{})
	start := eng.Now()
	for _, id := range []string{"a", "b", "c"} {
		if err := m.SubmitLRA(&lra.Application{
			ID:     id,
			Groups: []lra.ContainerGroup{{Name: "w", Count: 4, Demand: resource.New(2048, 1)}},
		}, start); err != nil {
			t.Fatal(err)
		}
	}
	horizon := start.Add(2 * time.Hour)
	end := horizon.Add(10 * time.Minute) // drain repairs after the last heal
	eng.Every(start, 10*time.Second, func(now time.Time) bool {
		m.Tick(now)
		return now.Before(end)
	})
	var nodes []cluster.NodeID
	for n := 0; n < c.NumNodes(); n++ {
		nodes = append(nodes, cluster.NodeID(n))
	}
	in, err := chaos.Inject(eng, m, nodes, chaos.Profile{
		MTBF: 30 * time.Minute, MTTR: 5 * time.Minute, Seed: 99,
	}, horizon)
	if err != nil {
		t.Fatal(err)
	}
	eng.Run(0)

	if in.Failures == 0 {
		t.Fatal("no failures injected over 2h with MTBF 30m on 12 nodes")
	}
	// Every LRA is whole again after the heal and drain window.
	for _, id := range []string{"a", "b", "c"} {
		ids, ok := m.Deployed(id)
		if !ok || len(ids) != 4 {
			t.Errorf("%s: %d/4 containers", id, len(ids))
		}
	}
	if in.Evicted > 0 && m.Recovery.RepairsPlaced == 0 {
		t.Error("containers were evicted but none repaired")
	}
}
