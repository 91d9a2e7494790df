package dst

import (
	"bytes"
	"reflect"
	"testing"
)

// TestMigrationDeterministic extends the byte-identical-trace contract
// to the movement machinery: with two-phase migrations (including armed
// crash points), drains and rolling restarts in the schedule, the same
// seed must still produce the same bytes.
func TestMigrationDeterministic(t *testing.T) {
	for _, seed := range []int64{5, 23} {
		cfg := Config{Seed: seed, Events: 200}
		evs1 := Generate(cfg)
		evs2 := Generate(cfg)
		if !reflect.DeepEqual(evs1, evs2) {
			t.Fatalf("seed %d: Generate is not deterministic", seed)
		}
		r1 := Run(cfg, evs1)
		r2 := Run(cfg, evs2)
		if !bytes.Equal(r1.Trace, r2.Trace) {
			t.Fatalf("seed %d: traces differ between two runs", seed)
		}
	}
}

// TestMigrationSmokeSweep runs a seed range with the full fault schedule
// plus migrations, drains and rolling restarts mixed in. Every invariant
// — nothing acked lost, no unexplained duplicate, no migration left
// incoherent — must hold on every path.
func TestMigrationSmokeSweep(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		r := RunSeed(Config{Seed: seed, Events: 150})
		if r.Violation != nil {
			t.Errorf("seed %d: %v\ntrace tail:\n%s", seed, r.Violation, traceTail(r.Trace, 3000))
		}
	}
}

// TestMigrationCrashPointSweep is the acceptance matrix stated as a
// directed schedule rather than a random one: an app is migrated with a
// crash armed at each protocol point, for each victim — the balancer
// (transition dropped before it is recorded), the source member, the
// destination member — then the run settles. Every cell must end with
// the app alive on exactly one member and nothing acked lost; that is
// what the strict settle invariants check.
func TestMigrationCrashPointSweep(t *testing.T) {
	points := []string{"post-prepare", "mid-commit", "pre-delete", "post-delete"}
	victims := []string{"balancer", "cluster-0", "cluster-1"}
	for _, point := range points {
		for _, victim := range victims {
			name := point + "/" + victim
			t.Run(name, func(t *testing.T) {
				evs := []Event{
					{Kind: EvSubmit, AdvanceMs: 25, App: "app-001", Containers: 2, MemMB: 512, VCores: 1},
					{Kind: EvStep, AdvanceMs: 25},
					{Kind: EvStep, AdvanceMs: 25},
					// cluster-0 is the home for a fresh 3-member fleet
					// (identical members rank by ID); migrate to cluster-1
					// with the crash armed.
					{Kind: EvMigrate, AdvanceMs: 25, App: "app-001", Dest: "cluster-1", MigPoint: point, Victim: victim},
				}
				for i := 0; i < 12; i++ {
					evs = append(evs, Event{Kind: EvStep, AdvanceMs: 25})
				}
				r := Run(Config{Seed: 1}, evs)
				if r.Violation != nil {
					t.Fatalf("%s: %v\ntrace tail:\n%s", name, r.Violation, traceTail(r.Trace, 4000))
				}
			})
		}
	}
}

// TestMigrationArtifactRoundTrip: a schedule with migrate events
// replayed from an artifact must run against the same harness (settle
// bound, heal semantics) as the direct run.
func TestMigrationArtifactRoundTrip(t *testing.T) {
	cfg := Config{Seed: 11, Events: 150}
	art := NewArtifact(cfg, nil, Generate(cfg), 150)
	r1 := Run(cfg, art.Events)
	r2 := art.Replay()
	if !bytes.Equal(r1.Trace, r2.Trace) {
		t.Fatal("artifact replay trace differs from direct run")
	}
}

// TestRollingRestartDirected drives a rolling restart of the whole fleet
// under a steady trickle of submissions: every member must be cycled
// (crashed, rebuilt from journal, re-confirmed live) and the strict
// settle invariants — nothing lost, no duplicates, journals coherent —
// must hold at the end.
func TestRollingRestartDirected(t *testing.T) {
	var evs []Event
	appID := func(i int) string {
		return []string{"app-001", "app-002", "app-003", "app-004", "app-005", "app-006"}[i]
	}
	for i := 0; i < 6; i++ {
		evs = append(evs,
			Event{Kind: EvSubmit, AdvanceMs: 25, App: appID(i), Containers: 1 + i%3, MemMB: 512, VCores: 1},
			Event{Kind: EvStep, AdvanceMs: 25},
		)
	}
	evs = append(evs, Event{Kind: EvRollingRestart, AdvanceMs: 25})
	for i := 0; i < 60; i++ {
		evs = append(evs, Event{Kind: EvStep, AdvanceMs: 25})
		if i%10 == 5 {
			evs = append(evs, Event{Kind: EvSubmit, AdvanceMs: 25,
				App: "app-1" + appID(i / 10)[4:], Containers: 1, MemMB: 256, VCores: 1})
		}
	}
	r := Run(Config{Seed: 2}, evs)
	if r.Violation != nil {
		t.Fatalf("%v\ntrace tail:\n%s", r.Violation, traceTail(r.Trace, 4000))
	}
}
