package lra

import (
	"fmt"
	"testing"
)

// TestILPCycleMemoryRecordAndReplay: one Place records per-app memory
// (placement counts per group and node), and a repeat solve of the same
// batch — the requeue scenario — replays it without changing the
// placement.
func TestILPCycleMemoryRecordAndReplay(t *testing.T) {
	c := grid(8, 4)
	s := NewILP().(*ilpScheduler)
	app := workerApp("hb", 5, "w")
	first := s.Place(c, []*Application{app}, nil, Options{})
	if first.PlacedApps() != 1 {
		t.Fatal("unplaced")
	}
	if first.ExactSolves != 1 {
		t.Fatalf("ExactSolves = %d, want 1", first.ExactSolves)
	}

	mem := s.memory["hb"]
	if mem == nil {
		t.Fatal("no memory recorded for the placed app")
	}
	if !mem.placed {
		t.Fatal("memory marks the placed app unplaced")
	}
	total := 0
	for _, c := range mem.counts["worker"] {
		total += c
	}
	if total != 5 {
		t.Fatalf("memory counts sum to %d, want 5", total)
	}

	// The requeue scenario: same batch, unchanged cluster (the first
	// result was never committed). The replayed memory must not perturb
	// the placement.
	s.BeginCycle()
	second := s.Place(c, []*Application{app}, nil, Options{})
	if second.PlacedApps() != 1 {
		t.Fatal("unplaced on replay")
	}
	asg := func(r *Result) map[string]int {
		out := map[string]int{}
		for _, a := range r.Placements[0].Assignments {
			out[fmt.Sprintf("%s@%d", a.Group, a.Node)]++
		}
		return out
	}
	a1, a2 := asg(first), asg(second)
	if len(a1) != len(a2) {
		t.Fatalf("assignments differ: %v vs %v", a1, a2)
	}
	for k, v := range a1 {
		if a2[k] != v {
			t.Fatalf("assignments differ at %s: %d vs %d", k, v, a2[k])
		}
	}
	if got := s.memory["hb"].age; got != 0 {
		t.Fatalf("memory age after refresh = %d, want 0", got)
	}
}

// TestILPCycleMemoryAging: BeginCycle prunes entries unrefreshed for
// memoryMaxAge cycles.
func TestILPCycleMemoryAging(t *testing.T) {
	c := grid(8, 4)
	s := NewILP().(*ilpScheduler)
	if res := s.Place(c, []*Application{workerApp("a", 2, "w")}, nil, Options{}); res.PlacedApps() != 1 {
		t.Fatal("unplaced")
	}
	for i := 0; i < memoryMaxAge; i++ {
		s.BeginCycle()
	}
	if s.memory["a"] == nil {
		t.Fatal("memory pruned too early")
	}
	s.BeginCycle()
	if s.memory["a"] != nil {
		t.Fatal("memory not pruned after max age")
	}
}

// TestILPArenaPoolReuse: consecutive Place calls reuse pooled arenas
// instead of growing the pool without bound.
func TestILPArenaPoolReuse(t *testing.T) {
	c := grid(8, 4)
	s := NewILP().(*ilpScheduler)
	for i := 0; i < 4; i++ {
		s.BeginCycle()
		if res := s.Place(c, []*Application{workerApp("a", 2, "w")}, nil, Options{}); res.PlacedApps() != 1 {
			t.Fatal("unplaced")
		}
	}
	if n := len(s.arenas); n != 1 {
		t.Fatalf("arena pool holds %d arenas after serial solves, want 1", n)
	}
}
