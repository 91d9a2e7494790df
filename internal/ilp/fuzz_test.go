package ilp

import (
	"math"
	"testing"
	"time"
)

// decodeModel builds a small 0/1 model from fuzzer bytes. The decoding is
// total: every byte slice yields some model (possibly empty or malformed),
// so the fuzzer explores the full Solve surface — including models that
// must be rejected by Check — without ever being guided into dead ends.
//
// Layout (all bytes optional; missing bytes read as zero):
//
//	b[0]        number of binary variables, 1 + b%6
//	b[1]        number of constraints, b%6
//	b[2]        sense (even = Minimize, odd = Maximize)
//	then per variable: 1 byte  -> objective coefficient in [-8, 7]
//	then per constraint: 1 byte kind (LE/GE/EQ), 1 byte rhs in [-n, n],
//	                     n bytes -> coefficients in {-1, 0, 1}
func decodeModel(data []byte) (*Model, []float64, int) {
	at := 0
	next := func() byte {
		if at >= len(data) {
			return 0
		}
		b := data[at]
		at++
		return b
	}
	nVars := 1 + int(next())%6
	nCons := int(next()) % 6
	sense := Minimize
	if next()%2 == 1 {
		sense = Maximize
	}
	m := NewModel(sense)
	obj := make([]float64, nVars)
	vars := make([]Var, nVars)
	for j := 0; j < nVars; j++ {
		vars[j] = m.Binary("x")
		obj[j] = float64(int(next())%16 - 8)
		m.SetObjective(vars[j], obj[j])
	}
	for i := 0; i < nCons; i++ {
		kind := next() % 3
		rhs := float64(int(next())%(2*nVars+1) - nVars)
		terms := make([]Term, 0, nVars)
		for j := 0; j < nVars; j++ {
			if c := float64(int(next())%3 - 1); c != 0 {
				terms = append(terms, T(c, vars[j]))
			}
		}
		switch kind {
		case 0:
			m.AddLE("c", rhs, terms...)
		case 1:
			m.AddGE("c", rhs, terms...)
		default:
			m.AddEQ("c", rhs, terms...)
		}
	}
	return m, obj, nVars
}

// bruteForce enumerates all 2^n binary assignments and returns the best
// feasible objective, or NaN when the model is infeasible.
func bruteForce(m *Model, obj []float64, n int) float64 {
	best := math.NaN()
	x := make([]float64, n)
	for mask := 0; mask < 1<<n; mask++ {
		v := 0.0
		for j := 0; j < n; j++ {
			x[j] = float64(mask >> j & 1)
			v += obj[j] * x[j]
		}
		if !m.CheckFeasible(x) {
			continue
		}
		if math.IsNaN(best) ||
			(m.sense == Maximize && v > best) ||
			(m.sense == Minimize && v < best) {
			best = v
		}
	}
	return best
}

// FuzzSolve cross-checks branch-and-bound against exhaustive enumeration
// on arbitrary small 0/1 models: Solve must never panic, any returned
// incumbent must pass CheckFeasible, and an Optimal status must match the
// brute-force optimum exactly. MaxNodes (not a wall-clock deadline) bounds
// the search so the oracle comparison stays deterministic.
func FuzzSolve(f *testing.F) {
	f.Add([]byte{})                                      // 1 var, no constraints
	f.Add([]byte{2, 1, 1, 3, 250, 5, 0, 2, 1, 1, 1})     // maximize under a <=
	f.Add([]byte{4, 2, 0, 7, 7, 9, 9, 9, 2, 4, 1, 1, 2}) // minimize with EQ
	f.Add([]byte{5, 5, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0,  // dense: 6 vars,
		1, 2, 1, 0, 2, 1, 0, 1, 2, 0, 1, 2, 1, 0, 2, 1, // 5 mixed
		0, 1, 2, 0, 1, 2, 1, 0, 2, 1, 0, 1, 2, 0, 1, 2}) // constraints
	f.Add([]byte{0, 1, 0, 8, 2, 200, 1}) // likely infeasible EQ

	f.Fuzz(func(t *testing.T, data []byte) {
		m, obj, n := decodeModel(data)
		sol := m.Solve(Options{MaxNodes: 5000})
		if err := m.Check(); err != nil {
			if sol.Status != Invalid {
				t.Fatalf("malformed model solved to %v, want Invalid (%v)", sol.Status, err)
			}
			return
		}
		want := bruteForce(m, obj, n)
		switch sol.Status {
		case Optimal, Feasible:
			x := make([]float64, n)
			for j := 0; j < n; j++ {
				x[j] = sol.Value(Var(j))
			}
			if !m.CheckFeasible(x) {
				t.Fatalf("%v solution infeasible: %v", sol.Status, x)
			}
			if math.IsNaN(want) {
				t.Fatalf("solver found %v but brute force says infeasible", sol.Status)
			}
			if sol.Status == Optimal && math.Abs(sol.Objective-want) > 1e-6 {
				t.Fatalf("optimal objective %v, brute force %v", sol.Objective, want)
			}
		case Infeasible:
			if !math.IsNaN(want) {
				t.Fatalf("solver says infeasible, brute force found %v", want)
			}
		case Invalid:
			t.Fatal("well-formed model solved to Invalid")
		case Unbounded:
			t.Fatal("bounded 0/1 model solved to Unbounded")
		}
	})
}

// correlatedKnapsack is a strongly correlated 0/1 knapsack over n items
// (profit = weight + constant, capacity half the total weight): the LP
// bound is nearly flat across subtrees, so branch-and-bound prunes poorly.
func correlatedKnapsack(n int) *Model {
	m := NewModel(Maximize)
	terms := make([]Term, n)
	total := 0.0
	for j := range terms {
		v := m.Binary("x")
		w := float64(13 + (j*7919)%37)
		m.SetObjective(v, w+10)
		terms[j] = T(w, v)
		total += w
	}
	m.AddLE("cap", math.Floor(total/2), terms...)
	return m
}

// TestDeadlineAdherence verifies the end-to-end budget promise: a solve
// with a deadline returns within the budget plus one check granularity
// (deadlineCheckEvery pivots / 16 nodes), never runs to completion of an
// exponential search, and reports DeadlineHit.
func TestDeadlineAdherence(t *testing.T) {
	// Full search of the 64-item knapsack takes far longer than the budget.
	const n = 64
	m := correlatedKnapsack(n)

	budget := 25 * time.Millisecond
	start := time.Now()
	sol := m.Solve(Options{Deadline: start.Add(budget)})
	elapsed := time.Since(start)

	// Margin: one deadline-check granularity is tens of microseconds of
	// pivots; 100ms absorbs scheduler noise on loaded CI machines.
	if elapsed > budget+100*time.Millisecond {
		t.Fatalf("solve took %v, budget %v", elapsed, budget)
	}
	if !sol.DeadlineHit {
		t.Fatalf("deadline not reported as hit (status %v, %d nodes in %v)",
			sol.Status, sol.Nodes, elapsed)
	}
	// Graceful degradation: the incumbent (if any) must still be feasible.
	if sol.Status == Feasible {
		x := make([]float64, n)
		for j := range x {
			x[j] = sol.Value(Var(j))
		}
		if !m.CheckFeasible(x) {
			t.Fatal("deadline incumbent is infeasible")
		}
	}
}
