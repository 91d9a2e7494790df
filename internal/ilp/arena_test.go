package ilp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// identicalSolutions compares two solutions byte for byte: status, the
// float bits of the objective and every variable value, node counts and
// the recorded branch order. It returns "" when identical, else a
// description of the first difference.
func identicalSolutions(a, b *Solution) string {
	if a.Status != b.Status {
		return fmt.Sprintf("status %v vs %v", a.Status, b.Status)
	}
	if math.Float64bits(a.Objective) != math.Float64bits(b.Objective) {
		return fmt.Sprintf("objective %v vs %v", a.Objective, b.Objective)
	}
	if len(a.values) != len(b.values) {
		return fmt.Sprintf("values len %d vs %d", len(a.values), len(b.values))
	}
	for j := range a.values {
		if math.Float64bits(a.values[j]) != math.Float64bits(b.values[j]) {
			return fmt.Sprintf("x[%d] %v vs %v", j, a.values[j], b.values[j])
		}
	}
	if a.Nodes != b.Nodes {
		return fmt.Sprintf("nodes %d vs %d", a.Nodes, b.Nodes)
	}
	if a.DeadlineHit != b.DeadlineHit {
		return fmt.Sprintf("deadlineHit %v vs %v", a.DeadlineHit, b.DeadlineHit)
	}
	if len(a.Branched) != len(b.Branched) {
		return fmt.Sprintf("branched len %d vs %d", len(a.Branched), len(b.Branched))
	}
	for i := range a.Branched {
		if a.Branched[i] != b.Branched[i] {
			return fmt.Sprintf("branched[%d] %d vs %d", i, a.Branched[i], b.Branched[i])
		}
	}
	return ""
}

// poisonedReuseCheck solves m three ways — through a shared arena (first
// use for this model), through the same arena again after garbage-filling
// every arena buffer, and with a fresh private arena — and demands
// byte-identical solutions. Any stale value leaking from pooled memory
// into a tableau, bound vector or extracted solution shows up here.
func poisonedReuseCheck(t *testing.T, m *Model, arena *SolverArena, opts Options, label string) {
	t.Helper()
	withArena := opts
	withArena.Arena = arena
	first := m.Solve(withArena)
	arena.Poison()
	second := m.Solve(withArena)
	fresh := m.Solve(opts)
	if diff := identicalSolutions(first, second); diff != "" {
		t.Fatalf("%s: poisoned arena re-solve differs: %s", label, diff)
	}
	if diff := identicalSolutions(first, fresh); diff != "" {
		t.Fatalf("%s: arena solve differs from fresh solve: %s", label, diff)
	}
}

// TestArenaPoisonedFuzzCorpus replays the FuzzSolve seed corpus through
// the poisoned-arena differential: one arena carries across every model
// (so cross-model contamination is exercised, not just re-solves).
func TestArenaPoisonedFuzzCorpus(t *testing.T) {
	arena := NewSolverArena()
	for i, data := range fuzzCorpus() {
		m, _, _ := decodeModel(data)
		if m.Check() != nil {
			continue
		}
		poisonedReuseCheck(t, m, arena, oracleOpts(), fmt.Sprintf("corpus[%d]", i))
	}
}

// TestArenaPoisonedRandomModels runs the reuse-poisoning differential
// over 500 random models through ONE arena, poisoned between every
// solve. Models vary in size, so the arena constantly re-serves buffers
// grown for differently-shaped predecessors — the hostile case for any
// stale-length or stale-content bug.
func TestArenaPoisonedRandomModels(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	arena := NewSolverArena()
	for i := 0; i < 500; i++ {
		m := randomOracleModel(r)
		if m.Check() != nil {
			continue
		}
		poisonedReuseCheck(t, m, arena, oracleOpts(), fmt.Sprintf("random[%d]", i))
	}
}

// TestArenaPoisonedApproxPath runs the poisoning differential down the
// approximate path: rounding dives draw from the same pooled scratch, and
// their RNG is seeded from the model, so poisoned reuse must reproduce
// the exact same dive.
func TestArenaPoisonedApproxPath(t *testing.T) {
	r := rand.New(rand.NewSource(4321))
	arena := NewSolverArena()
	opts := oracleOpts()
	opts.Mode = ModeApprox
	for i := 0; i < 200; i++ {
		m := randomOracleModel(r)
		if m.Check() != nil {
			continue
		}
		label := fmt.Sprintf("approx[%d]", i)
		withArena := opts
		withArena.Arena = arena
		first := m.Solve(withArena)
		arena.Poison()
		second := m.Solve(withArena)
		fresh := m.Solve(opts)
		if diff := identicalSolutions(first, second); diff != "" {
			t.Fatalf("%s: poisoned arena re-solve differs: %s", label, diff)
		}
		if diff := identicalSolutions(first, fresh); diff != "" {
			t.Fatalf("%s: arena solve differs from fresh solve: %s", label, diff)
		}
	}
}

// warmStartModels are the models of TestWarmStartDifferential (and of the
// warm-replay cases of TestSolveGolden): the fuzz corpus plus 250 seeded
// random models.
func warmStartModels() []*Model {
	r := rand.New(rand.NewSource(97))
	models := make([]*Model, 0, 260)
	for _, data := range fuzzCorpus() {
		m, _, _ := decodeModel(data)
		models = append(models, m)
	}
	for i := 0; i < 250; i++ {
		models = append(models, randomOracleModel(r))
	}
	return models
}

// TestWarmStartDifferential checks the warm-start contract on the corpus
// and random models: seeding the solver with the cold solve's own
// solution (values + branch order, as the LRA scheduler replays them
// across cycles) must keep the objective bit-identical, mark WarmUsed,
// and stay feasible — through a poisoned shared arena.
func TestWarmStartDifferential(t *testing.T) {
	arena := NewSolverArena()
	for i, m := range warmStartModels() {
		if m.Check() != nil {
			continue
		}
		label := fmt.Sprintf("model[%d]", i)
		cold := m.Solve(oracleOpts())
		if cold.Status != Optimal {
			continue
		}
		opts := warmReplay(m, oracleOpts(), cold)
		opts.Arena = arena
		arena.Poison()
		sol := m.Solve(opts)
		if sol.Status != Optimal {
			t.Fatalf("%s: warm-started solve status %v, cold %v", label, sol.Status, cold.Status)
		}
		// The warm-started search reaches the same optimum through a
		// different pivot sequence, so the objective can carry different
		// float dirt; equality holds to LP accumulation noise.
		if math.Abs(sol.Objective-cold.Objective) > 1e-9*math.Max(1, math.Abs(cold.Objective)) {
			t.Fatalf("%s: warm-started objective %v != cold %v", label, sol.Objective, cold.Objective)
		}
		// A solve whose root relaxation is integral returns before the
		// warm start is consulted; any other must mark a feasible one used.
		// The cold solve tells the two apart: it reports Nodes == 1 only
		// for an integral root, and branches past a fractional one. The
		// warm solve's count cannot: it also reports 1 when the root ties
		// the warm incumbent and the search closes at its first node.
		if len(opts.WarmStarts[0]) > 0 && cold.Nodes > 1 && !sol.WarmUsed {
			t.Fatalf("%s: feasible warm start not marked used", label)
		}
		x := make([]float64, len(m.vars))
		for j := range x {
			x[j] = sol.Value(Var(j))
		}
		if !m.CheckFeasible(x) {
			t.Fatalf("%s: warm-started solution infeasible: %v", label, x)
		}
	}
}
