package dst

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"medea/internal/cluster"
	"medea/internal/core"
	"medea/internal/lra"
	"medea/internal/resource"
)

// TestSameSeedByteIdenticalTraces is the determinism contract: a seed
// fully determines the schedule, and a schedule fully determines the
// run — two executions must produce byte-identical traces.
func TestSameSeedByteIdenticalTraces(t *testing.T) {
	for _, seed := range []int64{3, 17} {
		cfg := Config{Seed: seed, Events: 300}
		evs1 := Generate(cfg)
		evs2 := Generate(cfg)
		if !reflect.DeepEqual(evs1, evs2) {
			t.Fatalf("seed %d: Generate is not deterministic", seed)
		}
		r1 := Run(cfg, evs1)
		r2 := Run(cfg, evs2)
		if !bytes.Equal(r1.Trace, r2.Trace) {
			t.Fatalf("seed %d: traces differ between two runs of the same schedule", seed)
		}
	}
}

// TestSmokeSweep runs a small seed range end to end; any violation here
// is a real scheduler/federation bug (or an unsound invariant).
func TestSmokeSweep(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := RunSeed(Config{Seed: seed, Events: 120})
		if r.Violation != nil {
			t.Errorf("seed %d: %v\ntrace tail:\n%s", seed, r.Violation, traceTail(r.Trace, 3000))
		}
	}
}

// TestInjectedViolationCaughtMinimizedReplayable closes the loop on the
// harness's own machinery: a deliberately injected safety hole (the
// ledger forgetting an acknowledged app) must be caught by the checker,
// shrink to a small schedule under delta debugging, survive an artifact
// round-trip through disk, and reproduce on replay.
func TestInjectedViolationCaughtMinimizedReplayable(t *testing.T) {
	cfg := Config{Seed: 3, Events: 150, Inject: true}
	events := Generate(cfg)
	r := Run(cfg, events)
	if r.Violation == nil {
		t.Fatal("injected ledger hole was not caught")
	}
	if r.Violation.Name != VioAckedLost {
		t.Fatalf("injected hole caught as %q, want %q", r.Violation.Name, VioAckedLost)
	}

	min := Minimize(cfg, events, r.Violation.Name)
	if len(min) >= len(events) {
		t.Fatalf("minimization did not shrink the schedule: %d -> %d events", len(events), len(min))
	}
	t.Logf("minimized %d -> %d events", len(events), len(min))

	art := NewArtifact(cfg, r.Violation, min, len(events))
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := WriteArtifact(path, art); err != nil {
		t.Fatalf("writing artifact: %v", err)
	}
	loaded, err := ReadArtifact(path)
	if err != nil {
		t.Fatalf("reading artifact: %v", err)
	}
	rr := loaded.Replay()
	if rr.Violation == nil || rr.Violation.Name != VioAckedLost {
		t.Fatalf("replayed artifact got %v, want %s", rr.Violation, VioAckedLost)
	}

	// An artifact from before the one-schedule harness (version 1) or
	// from before the one solving path (version 2) must be refused, not
	// replayed against a fleet it was not recorded on.
	for _, old := range []int{1, 2} {
		art.Version = old
		if err := WriteArtifact(path, art); err != nil {
			t.Fatalf("writing version-%d artifact: %v", old, err)
		}
		want := fmt.Sprintf("has version %d, want 3", old)
		if _, err := ReadArtifact(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("reading version-%d artifact: err = %v, want the version error", old, err)
		}
	}
}

// TestJournalPrefixRecovery is the torn-tail property: after a faulty
// run, every prefix of every member's journal must recover cleanly —
// both against a fresh grid (cold restart, containers gone) and against
// the member's final cluster (nodes kept running across the crash).
// core.Recover checks the rebuilt scheduler's invariants internally, so
// a nil error is the property.
func TestJournalPrefixRecovery(t *testing.T) {
	for _, seed := range []int64{5, 11, 24} {
		cfg := Config{Seed: seed, Events: 200}
		h, err := newHarness(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := h.run(Generate(cfg))
		if res.Violation != nil {
			h.fleet.Close()
			t.Fatalf("seed %d: %v", seed, res.Violation)
		}
		for _, m := range h.fleet.Members {
			mem := h.mems[m.ID]
			for n := 0; n <= mem.Lag(); n++ {
				fresh := cluster.Grid(cfg.nodes(), 4, resource.New(16384, 16))
				if _, err := core.Recover(mem.ClonePrefix(n), fresh, lra.NewNodeCandidates(), h.coreCfg, h.now); err != nil {
					t.Errorf("seed %d %s prefix %d on fresh cluster: %v", seed, m.ID, n, err)
				}
				if _, err := core.Recover(mem.ClonePrefix(n), m.Med.Cluster.Clone(), lra.NewNodeCandidates(), h.coreCfg, h.now); err != nil {
					t.Errorf("seed %d %s prefix %d on final cluster: %v", seed, m.ID, n, err)
				}
			}
		}
		h.fleet.Close()
	}
}

func traceTail(b []byte, n int) string {
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return string(b)
}
