package ilp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// approxQualityRatio is the stated optimality bound of the approximate
// path on the oracle corpus: the rounded objective must be within this
// fraction of the exact optimum, measured against max(1, |optimum|).
// BenchmarkSolvePaths reports the ratio achieved on the placement fixture
// against a time-boxed exact solve.
const approxQualityRatio = 0.5

// approxGap returns the normalised optimality gap of an approximate
// objective against the exact optimum.
func approxGap(exact, approx float64) float64 {
	return math.Abs(exact-approx) / math.Max(1, math.Abs(exact))
}

// checkApproxAgainstExact solves m down both paths and enforces the
// approximate-path contract: every returned solution is feasible, the
// feasibility verdict agrees with the exact oracle, and the objective is
// within approxQualityRatio of the exact optimum.
func checkApproxAgainstExact(t *testing.T, m *Model, label string) float64 {
	t.Helper()
	exact := m.Solve(oracleOpts())
	opts := oracleOpts()
	opts.Mode = ModeApprox
	approx := m.Solve(opts)

	switch exact.Status {
	case Infeasible:
		// The rounding path proves LP infeasibility exactly; integer-only
		// infeasibility it can merely fail to round (NoSolution) — it never
		// fabricates a feasible answer.
		if approx.Status != Infeasible && approx.Status != NoSolution {
			t.Fatalf("%s: exact infeasible, approx %v", label, approx.Status)
		}
		return 0
	case Unbounded:
		if approx.Status != Unbounded {
			t.Fatalf("%s: exact unbounded, approx %v", label, approx.Status)
		}
		return 0
	case Invalid:
		if approx.Status != Invalid {
			t.Fatalf("%s: exact invalid, approx %v", label, approx.Status)
		}
		return 0
	}
	if approx.Status != Optimal && approx.Status != Feasible {
		t.Fatalf("%s: exact %v but approximate path returned %v", label, exact.Status, approx.Status)
	}
	x := make([]float64, len(m.vars))
	for j := range x {
		x[j] = approx.Value(Var(j))
	}
	if !m.CheckFeasible(x) {
		t.Fatalf("%s: approximate solution infeasible: %v", label, x)
	}
	if m.better(approx.Objective, exact.Objective) && approxGap(exact.Objective, approx.Objective) > 1e-9 {
		t.Fatalf("%s: approximate objective %v beats the exact optimum %v", label, approx.Objective, exact.Objective)
	}
	gap := approxGap(exact.Objective, approx.Objective)
	if gap > approxQualityRatio {
		t.Fatalf("%s: approximate objective %v vs exact %v — gap %.3f exceeds the stated ratio %.2f",
			label, approx.Objective, exact.Objective, gap, approxQualityRatio)
	}
	return gap
}

// TestApproxOracleCorpus runs the approximate path against the exact
// oracle over the fuzz corpus and 300 random models: always feasible,
// never claiming a better-than-optimal objective, and within the stated
// quality ratio.
func TestApproxOracleCorpus(t *testing.T) {
	worst := 0.0
	n := 0
	for i, data := range fuzzCorpus() {
		m, _, _ := decodeModel(data)
		if m.Check() != nil {
			continue
		}
		worst = math.Max(worst, checkApproxAgainstExact(t, m, fmt.Sprintf("corpus[%d]", i)))
		n++
	}
	r := rand.New(rand.NewSource(2718))
	for i := 0; i < 300; i++ {
		m := randomOracleModel(r)
		if m.Check() != nil {
			continue
		}
		worst = math.Max(worst, checkApproxAgainstExact(t, m, fmt.Sprintf("random[%d]", i)))
		n++
	}
	t.Logf("approximate path: %d models, worst optimality gap %.4f (stated bound %.2f)", n, worst, approxQualityRatio)
}

// TestApproxDeterministic pins the determinism of the rounding dive: the
// RNG is seeded from the model fingerprint, so repeated solves are
// byte-identical.
func TestApproxDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(31415))
	for i := 0; i < 100; i++ {
		m := randomOracleModel(r)
		if m.Check() != nil {
			continue
		}
		opts := oracleOpts()
		opts.Mode = ModeApprox
		ref := m.Solve(opts)
		for run := 0; run < 2; run++ {
			if diff := identicalSolutions(ref, m.Solve(opts)); diff != "" {
				t.Fatalf("model %d: approximate solve not deterministic: %s", i, diff)
			}
		}
	}
}

// TestModeAutoSelection covers the selection policy: small instances stay
// exact, instances over the integer-variable threshold flip to the
// approximate path, and a nearly-spent deadline flips a mid-size model.
func TestModeAutoSelection(t *testing.T) {
	small := NewModel(Maximize)
	for i := 0; i < 8; i++ {
		v := small.Binary("x")
		small.SetObjective(v, 1)
	}
	if got := small.effectiveMode(Options{Mode: ModeAuto}); got != ModeExact {
		t.Fatalf("small model auto mode = %v, want exact", got)
	}

	big := NewModel(Maximize)
	for i := 0; i < defaultApproxIntVars; i++ {
		v := big.Binary("x")
		big.SetObjective(v, 1)
	}
	if got := big.effectiveMode(Options{Mode: ModeAuto}); got != ModeApprox {
		t.Fatalf("big model auto mode = %v, want approx", got)
	}
	if got := big.effectiveMode(Options{}); got != ModeExact {
		t.Fatalf("big model default mode = %v, want exact", got)
	}

	mid := NewModel(Maximize)
	for i := 0; i < approxBudgetMinInts+1; i++ {
		v := mid.Binary("x")
		mid.SetObjective(v, 1)
	}
	now := time.Unix(1000, 0)
	clk := func() time.Time { return now }
	thin := Options{Mode: ModeAuto, Clock: clk, Deadline: now.Add(approxBudgetFloor / 2)}
	if got := mid.effectiveMode(thin); got != ModeApprox {
		t.Fatalf("thin-budget auto mode = %v, want approx", got)
	}
	fat := Options{Mode: ModeAuto, Clock: clk, Deadline: now.Add(time.Minute)}
	if got := mid.effectiveMode(fat); got != ModeExact {
		t.Fatalf("fat-budget auto mode = %v, want exact", got)
	}
}

// TestApproxLargeAssignment exercises the rounding dive in its intended
// regime — a placement-shaped model big enough that ModeAuto selects the
// approximate path on size alone — and checks feasibility plus a bounded
// gap against the LP relaxation root bound.
func TestApproxLargeAssignment(t *testing.T) {
	const groups, nodesN, perGroup = 40, 12, 8
	m := NewModel(Maximize)
	type gv struct{ vars []Var }
	all := make([]gv, groups)
	// Fractional capacities against integer demands keep the LP optimum
	// fractional, so the dive actually rounds instead of exiting at root.
	capLeft := make([]float64, nodesN)
	for n := range capLeft {
		capLeft[n] = 37.5
	}
	r := rand.New(rand.NewSource(7))
	nodeVars := make([][]Term, nodesN)
	for g := 0; g < groups; g++ {
		all[g].vars = make([]Var, nodesN)
		for n := 0; n < nodesN; n++ {
			v := m.Int(fmt.Sprintf("y_%d_%d", g, n), 0, perGroup)
			all[g].vars[n] = v
			m.SetObjective(v, 1+float64((g*7+n*3)%5))
			nodeVars[n] = append(nodeVars[n], T(float64(1+r.Intn(2)), v))
		}
		terms := make([]Term, nodesN)
		for n, v := range all[g].vars {
			terms[n] = T(1, v)
		}
		m.AddLE(fmt.Sprintf("gang_%d", g), perGroup, terms...)
	}
	for n := 0; n < nodesN; n++ {
		m.AddLE(fmt.Sprintf("cap_%d", n), capLeft[n], nodeVars[n]...)
	}
	if got := m.numIntVars(); got < defaultApproxIntVars {
		t.Fatalf("fixture has %d int vars, want >= %d", got, defaultApproxIntVars)
	}
	if got := m.effectiveMode(Options{Mode: ModeAuto}); got != ModeApprox {
		t.Fatalf("auto mode on large fixture = %v, want approx", got)
	}
	sol := m.Solve(Options{Mode: ModeAuto, MaxNodes: 100000})
	if sol.Status != Optimal && sol.Status != Feasible {
		t.Fatalf("large fixture solve status %v", sol.Status)
	}
	// An unmarked solution is only acceptable when the LP relaxation was
	// integral at the root — a proven-exact optimum without any rounding.
	if !sol.Approximate && (sol.Status != Optimal || sol.Nodes > 1) {
		t.Fatal("large fixture solution not marked Approximate")
	}
	x := make([]float64, m.NumVars())
	for j := range x {
		x[j] = sol.Value(Var(j))
	}
	if !m.CheckFeasible(x) {
		t.Fatal("large fixture approximate solution infeasible")
	}
}
