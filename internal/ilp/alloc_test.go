package ilp

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// Allocation caps of an arena-backed solve. Allocation counts do not
// depend on the host or on -race, so the caps are exact walls, not timing
// budgets. They sit far below one allocation per explored node: the
// knapsack explores at least knapsackMinNodes, so a solve that allocates
// per node fails here. Measured: 7 allocs / 4,208 B for the knapsack,
// 2 / 2,752 B for the warm re-solve. Without an arena a solve allocates
// its tableau afresh: 68 KB for the knapsack, 3 MB for the warm re-solve.
const (
	arenaMaxAllocs   = 64
	arenaMaxBytes    = 64 << 10
	knapsackMinNodes = 10000 // so the fixture cannot shrink quietly
)

// solveUnderCaps solves m with opts twice, the first as a warm-up, and
// fails the test if the second exceeds the arena caps (counted by
// runtime.MemStats).
func solveUnderCaps(t *testing.T, m *Model, opts Options) *Solution {
	t.Helper()
	m.Solve(opts)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sol := m.Solve(opts)
	runtime.ReadMemStats(&after)
	allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
	t.Logf("%d nodes, %d allocs, %d B", sol.Nodes, allocs, bytes)
	if allocs > arenaMaxAllocs || bytes > arenaMaxBytes {
		t.Errorf("solve allocated %d times / %d B, caps %d / %d", allocs, bytes, arenaMaxAllocs, arenaMaxBytes)
	}
	return sol
}

// placementFixture is a placement-shaped model: 32 container gangs of up
// to 6 across 10 nodes (320 general-integer variables), a gang row per
// group and a capacity row per node. The fractional capacities keep the
// LP optimum fractional, so the approximate path really rounds, and the
// tree is far too wide for a cold exact search to close.
func placementFixture() *Model {
	const groups, nodes, perGroup = 32, 10, 6
	m := NewModel(Maximize)
	nodeTerms := make([][]Term, nodes)
	for g := 0; g < groups; g++ {
		gang := make([]Term, nodes)
		for n := 0; n < nodes; n++ {
			v := m.Int(fmt.Sprintf("y_%d_%d", g, n), 0, perGroup)
			m.SetObjective(v, 1+float64((g*7+n*3)%5))
			nodeTerms[n] = append(nodeTerms[n], T(float64(1+(g*13+n*5)%2), v))
			gang[n] = T(1, v)
		}
		m.AddLE(fmt.Sprintf("gang_%d", g), perGroup, gang...)
	}
	for n := 0; n < nodes; n++ {
		m.AddLE(fmt.Sprintf("cap_%d", n), 28.5, nodeTerms[n]...)
	}
	return m
}

// warmOptions is the scheduler's steady-state re-solve of m, seeded with
// last cycle's placement (here the approximate path's, which is how a
// first placement of this size lands).
func warmOptions(m *Model, arena *SolverArena) Options {
	prev := m.Solve(Options{Mode: ModeApprox, Arena: arena})
	warm := make(map[Var]float64, m.NumVars())
	for j := 0; j < m.NumVars(); j++ {
		warm[Var(j)] = prev.Value(Var(j))
	}
	return Options{MaxNodes: 200000, Arena: arena, WarmStarts: []map[Var]float64{warm}}
}

// TestKnapsackArenaAllocCap holds a full exact solve of the correlated
// knapsack over a pooled arena to the caps.
func TestKnapsackArenaAllocCap(t *testing.T) {
	sol := solveUnderCaps(t, correlatedKnapsack(34), Options{MaxNodes: 200000, Arena: NewSolverArena()})
	if sol.Status != Optimal || sol.DeadlineHit {
		t.Fatalf("solve ended %v (deadline hit %v), want Optimal", sol.Status, sol.DeadlineHit)
	}
	if sol.Nodes < knapsackMinNodes {
		t.Fatalf("fixture explored %d nodes, want >= %d", sol.Nodes, knapsackMinNodes)
	}
}

// TestWarmResolveAllocCap holds a warm re-solve of the placement fixture
// over a pooled arena to the caps.
func TestWarmResolveAllocCap(t *testing.T) {
	m := placementFixture()
	sol := solveUnderCaps(t, m, warmOptions(m, NewSolverArena()))
	if sol.Status != Optimal && sol.Status != Feasible || !sol.WarmUsed {
		t.Fatalf("warm re-solve ended %v (warm used %v)", sol.Status, sol.WarmUsed)
	}
}

// BenchmarkSolvePaths times each solving path: exact search on the
// knapsack with cold allocation and over a pooled arena, and on the
// placement fixture a warm re-solve and the approximate path. approx
// reports its objective against a 2-second exact solve of the same model
// as approx/exact.
func BenchmarkSolvePaths(b *testing.B) {
	knapsack, place := correlatedKnapsack(34), placementFixture()
	arena := NewSolverArena()
	paths := []struct {
		name string
		m    *Model
		opts Options
	}{
		{"exact-cold", knapsack, Options{MaxNodes: 200000}},
		{"exact-arena", knapsack, Options{MaxNodes: 200000, Arena: arena}},
		{"exact-warm", place, warmOptions(place, arena)},
		{"approx", place, Options{Mode: ModeApprox, Arena: arena}},
	}
	for _, p := range paths {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			var sol *Solution
			for i := 0; i < b.N; i++ {
				sol = p.m.Solve(p.opts)
			}
			if sol.Status != Optimal && sol.Status != Feasible {
				b.Fatalf("solve ended %v", sol.Status)
			}
			if p.opts.Mode == ModeApprox {
				b.StopTimer()
				exact := p.m.Solve(Options{MaxNodes: 500000, Deadline: time.Now().Add(2 * time.Second)})
				b.ReportMetric(sol.Objective/exact.Objective, "approx/exact")
			}
		})
	}
}
