package dst

import (
	"bytes"
	"reflect"
	"testing"
)

// TestMixedSolverSchedulesFlipModes checks that generated schedules
// actually contain what the one schedule promises beyond plain faults:
// cross-cluster migrations and member drains.
func TestMixedSolverSchedulesFlipModes(t *testing.T) {
	for _, seed := range []int64{2, 3, 9, 17} {
		count := make(map[EventKind]int)
		for _, ev := range Generate(Config{Seed: seed, Events: 300}) {
			count[ev.Kind]++
		}
		for _, kind := range []EventKind{EvMigrate, EvDrainMember} {
			if count[kind] == 0 {
				t.Fatalf("seed %d: schedule has no %s events", seed, kind)
			}
		}
	}
}

// TestMixedSolverDeterministic extends the byte-identical-trace contract
// to the ILP members: with every member solving via the ILP scheduler —
// arena reuse engaged, and the arena pool lost on every crash — the same
// seed must still produce the same bytes.
// This is the strongest statement the repo makes about solver
// determinism: pooled memory may change *how* a solution is reached,
// never *which* solution a given history yields.
func TestMixedSolverDeterministic(t *testing.T) {
	for _, seed := range []int64{4, 21} {
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

// TestMixedSolverSmokeSweep runs a seed range with ILP members under the
// full fault schedule (crashes dropping warm memory, partitions,
// migrations, drains). Every invariant — capacity, ledger/member
// agreement, journal recoverability — must hold on every seed.
func TestMixedSolverSmokeSweep(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		r := RunSeed(Config{Seed: seed, Events: 120})
		if r.Violation != nil {
			t.Errorf("seed %d: %v\ntrace tail:\n%s", seed, r.Violation, traceTail(r.Trace, 3000))
		}
	}
}

// TestMixedSolverArtifactRoundTrip: a schedule replayed from an artifact
// must rebuild the fleet on the ILP scheduler, or its placements — and
// so its trace — would come from another algorithm.
func TestMixedSolverArtifactRoundTrip(t *testing.T) {
	cfg := Config{Seed: 7, Events: 150}
	art := NewArtifact(cfg, nil, Generate(cfg), 150)
	r1 := Run(cfg, art.Events)
	r2 := art.Replay()
	if !bytes.Equal(r1.Trace, r2.Trace) {
		t.Fatal("artifact replay trace differs from direct run")
	}
}
