package ilp

import (
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// densePivot is the full-sweep tableau pivot the solver ran before its
// kernel learnt to skip zeros, kept as that kernel's oracle.
func densePivot(tab [][]float64, basis []int, row, col int) {
	pr := tab[row]
	p := pr[col]
	inv := 1 / p
	for k := range pr {
		pr[k] *= inv
	}
	pr[col] = 1 // exact
	for i := range tab {
		if i == row {
			continue
		}
		f := tab[i][col]
		if f == 0 {
			continue
		}
		ri := tab[i]
		for k := range ri {
			ri[k] -= f * pr[k]
		}
		ri[col] = 0 // exact
	}
	basis[row] = col
}

// TestSparsePivotMatchesDense drives the solver's pivot kernel and the
// dense oracle over random sparse tableaux — negative pivots, -0 cells
// and pivot rows whose only non-zero is the pivot among them — and
// compares every cell bit for bit, the basis and the returned column list.
//
// One difference is expected and pinned here rather than hidden: where a
// row is eliminated but the pivot row is zero, the dense sweep computes
// cell − f·(±0), which turns a -0 cell into +0 when the product is -0; the
// kernel never visits the cell, so the -0 stays. Both are zero to every
// reader of the tableau interior (comparisons, products with non-zeros,
// subtraction from a non-zero). The right-hand side is read for its sign
// too, and there the kernel must agree with the oracle exactly.
func TestSparsePivotMatchesDense(t *testing.T) {
	negZero := math.Copysign(0, -1)
	bits := math.Float64bits
	rng := rand.New(rand.NewSource(20))
	sc := &lpScratch{}
	negPivots, loneNonZero, keptSign := 0, 0, 0
	for trial := 0; trial < 3000; trial++ {
		rows, stride := 2+rng.Intn(12), 3+rng.Intn(30)
		rhs := stride - 1
		density := []float64{0.03, 0.1, 0.3, 0.8}[rng.Intn(4)]
		cell := func() float64 {
			switch {
			case rng.Float64() >= density:
				if rng.Intn(6) == 0 {
					return negZero
				}
				return 0
			case rng.Intn(3) == 0:
				return float64(rng.Intn(9) - 4)
			default:
				return rng.NormFloat64()
			}
		}
		before := make([][]float64, rows)
		for i := range before {
			before[i] = make([]float64, stride)
			for k := range before[i] {
				before[i][k] = cell()
			}
		}
		row, col := rng.Intn(rows), rng.Intn(rhs)
		if trial%5 == 0 {
			// The pivot is the row's only non-zero: only the pivot column
			// and the right-hand side can change anywhere.
			for k := range before[row] {
				before[row][k] = []float64{0, negZero}[rng.Intn(2)]
			}
			loneNonZero++
		}
		before[row][col] = 0.5 + 3*rng.Float64()
		if trial%3 == 0 {
			before[row][col] = -before[row][col]
			negPivots++
		}
		basis := make([]int, rows)
		for i := range basis {
			basis[i] = rng.Intn(stride)
		}

		copyTab := func() [][]float64 {
			out := make([][]float64, rows)
			for i := range out {
				out[i] = append([]float64(nil), before[i]...)
			}
			return out
		}
		want, wantBasis := copyTab(), append([]int(nil), basis...)
		densePivot(want, wantBasis, row, col)
		got, gotBasis := copyTab(), append([]int(nil), basis...)
		sc.poison()
		sc.col = growF64(sc.col, rows)
		for i := range got {
			sc.col[i] = got[i][col]
		}
		nz := pivot(got, gotBasis, row, col, sc)

		var wantNz []int
		for k, v := range want[row] {
			if v != 0 || k == rhs {
				wantNz = append(wantNz, k)
			}
		}
		if len(nz) != len(wantNz) {
			t.Fatalf("trial %d: eliminated over columns %v, pivot row is non-zero at %v", trial, nz, wantNz)
		}
		for i := range nz {
			if nz[i] != wantNz[i] {
				t.Fatalf("trial %d: eliminated over columns %v, pivot row is non-zero at %v", trial, nz, wantNz)
			}
		}
		for i := range want {
			if gotBasis[i] != wantBasis[i] {
				t.Fatalf("trial %d: basis[%d] = %d, dense %d", trial, i, gotBasis[i], wantBasis[i])
			}
			for k := range want[i] {
				if bits(got[i][k]) == bits(want[i][k]) {
					continue
				}
				unvisited := i != row && k != rhs && before[i][col] != 0 && want[row][k] == 0
				if unvisited && bits(before[i][k]) == bits(negZero) && bits(got[i][k]) == bits(negZero) && bits(want[i][k]) == 0 {
					keptSign++
					continue
				}
				t.Fatalf("trial %d (%dx%d, pivot %v at %d,%d): cell %d,%d = %v (%#x), dense %v (%#x), was %v",
					trial, rows, stride, before[row][col], row, col, i, k, got[i][k], bits(got[i][k]), want[i][k], bits(want[i][k]), before[i][k])
			}
		}
	}
	if negPivots == 0 || loneNonZero == 0 || keptSign == 0 {
		t.Fatalf("coverage: %d negative pivots, %d one-non-zero pivot rows, %d kept -0 cells", negPivots, loneNonZero, keptSign)
	}
}

// TestExploreSolvesEachLPOnce counts LPs. The root relaxation is solved
// once and handed to the search's first node, and a node whose bound
// cannot beat what the search holds is counted without an LP: a solve
// that ends with Nodes == 2 on one warm start solves exactly two LPs (the
// root and the warm start's), the same model cold solves two for its four
// nodes, and over every solve.golden case the LPs stay within the node
// count, less the root's second count, plus the warm starts — while no
// case's Nodes moved.
func TestExploreSolvesEachLPOnce(t *testing.T) {
	// The relaxation's vertex is x = y = 0.5, objective 1; y = 1 alone is
	// an integer optimum with the same objective.
	m := NewModel(Maximize)
	x, y := m.Binary("x"), m.Binary("y")
	m.SetObjective(x, 1)
	m.SetObjective(y, 1)
	m.AddLE("pair", 1, T(1, x), T(1, y))
	m.AddLE("half", 1, T(2, x))
	arena := NewSolverArena()
	if root := solveLP(m, nil, []float64{0, 0}, []float64{1, 1}, time.Time{}, nil, nil); root.status != Optimal || m.integral(root.x) {
		t.Fatalf("fixture: root relaxation %+v is not fractional", root)
	}
	sol := m.Solve(Options{Arena: arena, WarmStarts: []map[Var]float64{{x: 0, y: 1}}})
	if sol.Status != Optimal || sol.Objective != 1 || sol.Nodes != 2 || !sol.WarmUsed {
		t.Fatalf("fixture: %+v, want optimal 1 at Nodes 2 from the warm start", sol)
	}
	if arena.lp.lps != 2 {
		t.Errorf("Nodes == 2 with one warm start solved %d LPs, want 2", arena.lp.lps)
	}
	// Cold, the search branches on x: the x = 0 child is that optimum, and
	// the x = 1 child inherits bound 1, which no longer beats it. Four nodes
	// (the root counts twice), two LPs: the root's and the first child's.
	arena = NewSolverArena()
	if sol := m.Solve(Options{Arena: arena}); sol.Status != Optimal || sol.Objective != 1 || sol.Nodes != 4 || arena.lp.lps != 2 {
		t.Errorf("cold: %+v after %d LPs, want optimal 1 at Nodes 4 after 2 LPs", sol, arena.lp.lps)
	}

	golden, err := os.ReadFile(filepath.Join("testdata", "solve.golden"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(golden), "\n"), "\n")
	cases := goldenCases()
	if len(lines) != len(cases) {
		t.Fatalf("golden has %d lines, the suite %d", len(lines), len(cases))
	}
	nodesField := regexp.MustCompile(` nodes=(\d+) `)
	for i, c := range cases {
		match := nodesField.FindStringSubmatch(lines[i])
		if !strings.HasPrefix(lines[i], c.label+" ") || match == nil {
			t.Fatalf("golden line %d does not belong to %s: %s", i+1, c.label, lines[i])
		}
		wantNodes, _ := strconv.Atoi(match[1])
		arena := NewSolverArena()
		opts := c.opts
		opts.Arena = arena
		sol := c.m.Solve(opts)
		if sol.Nodes != wantNodes {
			t.Errorf("%s: Nodes %d, golden %d", c.label, sol.Nodes, wantNodes)
		}
		warm := 0
		for _, ws := range opts.WarmStarts {
			if len(ws) > 0 {
				warm++
			}
		}
		if limit := max(1, sol.Nodes-1) + warm; arena.lp.lps > limit {
			t.Errorf("%s: %d LPs for Nodes %d and %d warm starts, want at most %d", c.label, arena.lp.lps, sol.Nodes, warm, limit)
		}
	}
}
