package ilp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// oracleOpts are the settings under which the solver's contract is exact:
// no deadline and a node budget generous enough that the small oracle
// models always solve to proven optimality.
func oracleOpts() Options {
	return Options{MaxNodes: 50000}
}

// checkAgainstBruteForce solves the model and fails unless it agrees with
// exhaustive enumeration: Infeasible exactly when no assignment is
// feasible, otherwise Optimal with the enumerated optimum. The oracle
// models use small integer coefficients over at most 10 binary variables,
// so the objective of the returned assignment is an exact float sum and
// is compared without tolerance; the reported objective is the LP's and
// may carry its noise.
func checkAgainstBruteForce(t *testing.T, m *Model, label string) {
	t.Helper()
	obj := make([]float64, len(m.vars))
	for j := range obj {
		obj[j] = m.vars[j].obj
	}
	want := bruteForce(m, obj, len(m.vars))
	sol := m.Solve(oracleOpts())
	if math.IsNaN(want) {
		if sol.Status != Infeasible {
			t.Fatalf("%s: status %v, brute force says infeasible", label, sol.Status)
		}
		return
	}
	if sol.Status != Optimal {
		t.Fatalf("%s: status %v, brute force found %v", label, sol.Status, want)
	}
	if math.Abs(sol.Objective-want) > 1e-9 {
		t.Fatalf("%s: objective %v, brute force %v", label, sol.Objective, want)
	}
	x := make([]float64, len(m.vars))
	got := 0.0
	for j := range x {
		x[j] = sol.Value(Var(j))
		got += obj[j] * x[j]
	}
	if !m.CheckFeasible(x) {
		t.Fatalf("%s: incumbent infeasible: %v", label, x)
	}
	if got != want {
		t.Fatalf("%s: assignment %v scores %v, brute force %v", label, x, got, want)
	}
}

// fuzzCorpus returns the FuzzSolve seed corpus — the byte encodings that
// historically exercised tricky solver paths — shared by the oracle,
// arena-poisoning and approximate-path differential suites.
func fuzzCorpus() [][]byte {
	return [][]byte{
		{},                                      // 1 var, no constraints
		{2, 1, 1, 3, 250, 5, 0, 2, 1, 1, 1},     // maximize under a <=
		{4, 2, 0, 7, 7, 9, 9, 9, 2, 4, 1, 1, 2}, // minimize with EQ
		{5, 5, 1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0, // dense: 6 vars,
			1, 2, 1, 0, 2, 1, 0, 1, 2, 0, 1, 2, 1, 0, 2, 1, // 5 mixed
			0, 1, 2, 0, 1, 2, 1, 0, 2, 1, 0, 1, 2, 0, 1, 2}, // constraints
		{0, 1, 0, 8, 2, 200, 1}, // likely infeasible EQ
	}
}

// TestOracleFuzzCorpusDifferential replays the FuzzSolve seed corpus
// through the brute-force differential oracle.
func TestOracleFuzzCorpusDifferential(t *testing.T) {
	for i, data := range fuzzCorpus() {
		m, _, _ := decodeModel(data)
		if m.Check() != nil {
			continue
		}
		checkAgainstBruteForce(t, m, fmt.Sprintf("corpus[%d]", i))
	}
}

// randomOracleModel builds a random 0/1 model with small integer
// coefficients: up to 10 binary variables, up to 8 LE/GE/EQ constraints
// with coefficients in {-2..2} and integer right-hand sides. Integer
// data keeps every objective an exact float sum, so the differential
// comparison can demand bit equality.
func randomOracleModel(r *rand.Rand) *Model {
	nVars := 1 + r.Intn(10)
	nCons := r.Intn(9)
	sense := Minimize
	if r.Intn(2) == 1 {
		sense = Maximize
	}
	m := NewModel(sense)
	vars := make([]Var, nVars)
	for j := range vars {
		vars[j] = m.Binary("x")
		m.SetObjective(vars[j], float64(r.Intn(21)-10))
	}
	for i := 0; i < nCons; i++ {
		terms := make([]Term, 0, nVars)
		for _, v := range vars {
			if c := r.Intn(5) - 2; c != 0 {
				terms = append(terms, T(float64(c), v))
			}
		}
		rhs := float64(r.Intn(2*nVars+1) - nVars)
		switch r.Intn(3) {
		case 0:
			m.AddLE("c", rhs, terms...)
		case 1:
			m.AddGE("c", rhs, terms...)
		default:
			m.AddEQ("c", rhs, terms...)
		}
	}
	return m
}

// TestOracleRandomDifferential cross-checks the solver against exhaustive
// enumeration on 500 randomized 0/1 models.
func TestOracleRandomDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		m := randomOracleModel(r)
		checkAgainstBruteForce(t, m, fmt.Sprintf("random[%d]", i))
	}
}
