package ilp

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-5 }

// TestLPBasic: max 3x+2y s.t. x+y<=4, x+3y<=6, x,y>=0 -> (4,0), obj 12.
func TestLPBasic(t *testing.T) {
	m := NewModel(Maximize)
	x := m.Float("x", 0, Infinity)
	y := m.Float("y", 0, Infinity)
	m.SetObjective(x, 3)
	m.SetObjective(y, 2)
	m.AddLE("c1", 4, T(1, x), T(1, y))
	m.AddLE("c2", 6, T(1, x), T(3, y))
	s := m.Solve(Options{})
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if !almostEq(s.Objective, 12) || !almostEq(s.Value(x), 4) || !almostEq(s.Value(y), 0) {
		t.Errorf("obj=%v x=%v y=%v, want 12,4,0", s.Objective, s.Value(x), s.Value(y))
	}
}

// TestLPMinimize: min 2x+3y s.t. x+y>=10, x<=6 -> x=6,y=4, obj 24.
func TestLPMinimize(t *testing.T) {
	m := NewModel(Minimize)
	x := m.Float("x", 0, 6)
	y := m.Float("y", 0, Infinity)
	m.SetObjective(x, 2)
	m.SetObjective(y, 3)
	m.AddGE("c1", 10, T(1, x), T(1, y))
	s := m.Solve(Options{})
	if s.Status != Optimal || !almostEq(s.Objective, 24) {
		t.Fatalf("status=%v obj=%v, want optimal 24", s.Status, s.Objective)
	}
}

func TestLPEquality(t *testing.T) {
	// min x+y s.t. x+2y = 8, x >= 1 -> x=1? cost of y is 1: x=1,y=3.5 obj 4.5
	// vs x=8,y=0 obj 8. Optimal x=1 (bounded below by 1).
	m := NewModel(Minimize)
	x := m.Float("x", 1, Infinity)
	y := m.Float("y", 0, Infinity)
	m.SetObjective(x, 1)
	m.SetObjective(y, 1)
	m.AddEQ("eq", 8, T(1, x), T(2, y))
	s := m.Solve(Options{})
	if s.Status != Optimal || !almostEq(s.Objective, 4.5) {
		t.Fatalf("status=%v obj=%v, want optimal 4.5", s.Status, s.Objective)
	}
}

func TestLPInfeasible(t *testing.T) {
	m := NewModel(Maximize)
	x := m.Float("x", 0, 5)
	m.AddGE("c", 10, T(1, x))
	if s := m.Solve(Options{}); s.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", s.Status)
	}
}

func TestLPUnbounded(t *testing.T) {
	m := NewModel(Maximize)
	x := m.Float("x", 0, Infinity)
	m.SetObjective(x, 1)
	m.AddGE("c", 1, T(1, x))
	if s := m.Solve(Options{}); s.Status != Unbounded {
		t.Errorf("status = %v, want unbounded", s.Status)
	}
}

func TestLPFreeVariable(t *testing.T) {
	// min |x| style: min y s.t. y >= x, y >= -x, x == -7 -> y=7.
	m := NewModel(Minimize)
	x := m.Float("x", math.Inf(-1), Infinity)
	y := m.Float("y", 0, Infinity)
	m.SetObjective(y, 1)
	m.AddGE("a", 0, T(1, y), T(-1, x))
	m.AddGE("b", 0, T(1, y), T(1, x))
	m.AddEQ("fix", -7, T(1, x))
	s := m.Solve(Options{})
	if s.Status != Optimal || !almostEq(s.Value(y), 7) || !almostEq(s.Value(x), -7) {
		t.Fatalf("status=%v x=%v y=%v", s.Status, s.Value(x), s.Value(y))
	}
}

func TestLPNegativeLowerBound(t *testing.T) {
	// max x with -5 <= x <= -2.
	m := NewModel(Maximize)
	x := m.Float("x", -5, -2)
	m.SetObjective(x, 1)
	m.AddLE("pad", 100, T(1, x)) // force a row so simplex runs
	s := m.Solve(Options{})
	if s.Status != Optimal || !almostEq(s.Value(x), -2) {
		t.Fatalf("status=%v x=%v, want -2", s.Status, s.Value(x))
	}
}

func TestLPRangeConstraint(t *testing.T) {
	m := NewModel(Maximize)
	x := m.Float("x", 0, Infinity)
	m.SetObjective(x, 1)
	m.addCon("r", 2, 5, []Term{T(1, x)})
	s := m.Solve(Options{})
	if s.Status != Optimal || !almostEq(s.Value(x), 5) {
		t.Fatalf("x=%v, want 5", s.Value(x))
	}
	m2 := NewModel(Minimize)
	y := m2.Float("y", 0, Infinity)
	m2.SetObjective(y, 1)
	m2.addCon("r", 2, 5, []Term{T(1, y)})
	s2 := m2.Solve(Options{})
	if s2.Status != Optimal || !almostEq(s2.Value(y), 2) {
		t.Fatalf("y=%v, want 2", s2.Value(y))
	}
}

func TestLPFixedVariable(t *testing.T) {
	m := NewModel(Maximize)
	x := m.Float("x", 3, 3)
	y := m.Float("y", 0, 10)
	m.SetObjective(x, 1)
	m.SetObjective(y, 1)
	m.AddLE("c", 8, T(1, x), T(1, y))
	s := m.Solve(Options{})
	if s.Status != Optimal || !almostEq(s.Value(x), 3) || !almostEq(s.Value(y), 5) {
		t.Fatalf("x=%v y=%v, want 3,5", s.Value(x), s.Value(y))
	}
}

func TestBoundOnlyProblem(t *testing.T) {
	m := NewModel(Maximize)
	x := m.Float("x", 0, 7)
	y := m.Float("y", 1, 4)
	m.SetObjective(x, 2)
	m.SetObjective(y, -1)
	s := m.Solve(Options{})
	if s.Status != Optimal || !almostEq(s.Objective, 13) {
		t.Fatalf("status=%v obj=%v, want 13", s.Status, s.Objective)
	}
}

// TestRowLessModelReturnsPositiveZero: the root bounds of an integer
// variable with lo = 0 are math.Ceil(0 − tolInt) = −0, and a model
// without rows is solved from its bounds alone; the value at such a bound
// is +0, as a model with rows returns it. Both an unbounded and a boxed
// variable are solved this way.
func TestRowLessModelReturnsPositiveZero(t *testing.T) {
	for _, hi := range []float64{Infinity, 1} {
		m := NewModel(Minimize)
		x := m.Int("x", 0, hi)
		m.SetObjective(x, 1)
		s := m.Solve(Options{})
		if got := s.Value(x); s.Status != Optimal || math.Float64bits(got) != 0 {
			t.Errorf("x in [0,%v]: status %v, x = %v (bits %#x), want optimal at +0", hi, s.Status, got, math.Float64bits(got))
		}
	}
}

// TestMIPKnapsack: classic 0/1 knapsack.
// weights 2,3,4,5 values 3,4,5,6 cap 5 -> best = items {2,3} w=5 v=7.
func TestMIPKnapsack(t *testing.T) {
	m := NewModel(Maximize)
	w := []float64{2, 3, 4, 5}
	v := []float64{3, 4, 5, 6}
	vars := make([]Var, 4)
	terms := make([]Term, 4)
	for i := range vars {
		vars[i] = m.Binary("x")
		m.SetObjective(vars[i], v[i])
		terms[i] = T(w[i], vars[i])
	}
	m.AddLE("cap", 5, terms...)
	s := m.Solve(Options{})
	if s.Status != Optimal || !almostEq(s.Objective, 7) {
		t.Fatalf("status=%v obj=%v, want optimal 7", s.Status, s.Objective)
	}
	if s.IntValue(vars[0]) != 1 || s.IntValue(vars[1]) != 1 {
		t.Errorf("selection = %d,%d,%d,%d", s.IntValue(vars[0]), s.IntValue(vars[1]), s.IntValue(vars[2]), s.IntValue(vars[3]))
	}
}

// TestMIPIntegerRounding: LP optimum is fractional; MIP must branch.
// max x+y s.t. 2x+2y <= 5, integer -> obj 2 (LP gives 2.5).
func TestMIPIntegerRounding(t *testing.T) {
	m := NewModel(Maximize)
	x := m.Int("x", 0, 10)
	y := m.Int("y", 0, 10)
	m.SetObjective(x, 1)
	m.SetObjective(y, 1)
	m.AddLE("c", 5, T(2, x), T(2, y))
	s := m.Solve(Options{})
	if s.Status != Optimal || !almostEq(s.Objective, 2) {
		t.Fatalf("status=%v obj=%v, want optimal 2", s.Status, s.Objective)
	}
}

func TestMIPInfeasible(t *testing.T) {
	m := NewModel(Maximize)
	x := m.Int("x", 0, 10)
	m.SetObjective(x, 1)
	// 0.4 <= x <= 0.6 has no integer point.
	m.addCon("r", 0.4, 0.6, []Term{T(1, x)})
	if s := m.Solve(Options{}); s.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", s.Status)
	}
}

// TestMIPEqualityAllOrNothing mirrors Equation 4 of the paper: sum of
// placement binaries minus T*S = 0 forces all-or-nothing placement.
func TestMIPEqualityAllOrNothing(t *testing.T) {
	m := NewModel(Maximize)
	const T3 = 3
	s3 := m.Binary("S")
	xs := make([]Var, T3)
	sumTerms := []Term{T(-T3, s3)}
	for i := range xs {
		xs[i] = m.Binary("x")
		sumTerms = append(sumTerms, T(1, xs[i]))
	}
	m.AddEQ("all-or-nothing", 0, sumTerms...)
	// Only 2 containers fit: x0+x1+x2 <= 2.
	m.AddLE("cap", 2, T(1, xs[0]), T(1, xs[1]), T(1, xs[2]))
	m.SetObjective(s3, 1)
	sol := m.Solve(Options{})
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.IntValue(s3) != 0 {
		t.Errorf("S = %d, want 0 (cannot place all)", sol.IntValue(s3))
	}
	for i, x := range xs {
		if sol.IntValue(x) != 0 {
			t.Errorf("x%d = %d, want 0", i, sol.IntValue(x))
		}
	}
}

func TestMIPBigMIndicator(t *testing.T) {
	// z=1 iff y <= 3 allowed: y - 10(1-z) <= 3. max y + 5z, y <= 8.
	// Best: z=0, y=8 -> 8 vs z=1, y=3 -> 8. Tie; both feasible with obj 8.
	m := NewModel(Maximize)
	y := m.Int("y", 0, 8)
	z := m.Binary("z")
	m.SetObjective(y, 1)
	m.SetObjective(z, 5)
	m.AddLE("bigM", 13, T(1, y), T(10, z))
	s := m.Solve(Options{})
	if s.Status != Optimal || !almostEq(s.Objective, 8) {
		t.Fatalf("obj=%v, want 8", s.Objective)
	}
}

func TestMIPGeneralInteger(t *testing.T) {
	// max 7x+2y s.t. 3x+y<=12, x,y int >=0 -> x=4,y=0 obj 28.
	m := NewModel(Maximize)
	x := m.Int("x", 0, 100)
	y := m.Int("y", 0, 100)
	m.SetObjective(x, 7)
	m.SetObjective(y, 2)
	m.AddLE("c", 12, T(3, x), T(1, y))
	s := m.Solve(Options{})
	if s.Status != Optimal || !almostEq(s.Objective, 28) {
		t.Fatalf("obj=%v, want 28", s.Objective)
	}
}

func TestSolveDeadline(t *testing.T) {
	// A model that takes some branching; with an already-expired deadline
	// we must get NoSolution or Feasible quickly, never hang.
	m := NewModel(Maximize)
	rng := rand.New(rand.NewSource(7))
	var terms []Term
	for i := 0; i < 30; i++ {
		x := m.Binary("x")
		m.SetObjective(x, float64(1+rng.Intn(10)))
		terms = append(terms, T(float64(1+rng.Intn(7)), x))
	}
	m.AddLE("cap", 20, terms...)
	s := m.Solve(Options{Deadline: time.Now().Add(-time.Second)})
	if s.Status == Optimal && s.Nodes > 1 {
		t.Errorf("expired deadline still explored %d nodes to optimality", s.Nodes)
	}
}

func TestCheckFeasible(t *testing.T) {
	m := NewModel(Maximize)
	x := m.Int("x", 0, 5)
	y := m.Float("y", 0, 5)
	m.AddLE("c", 6, T(1, x), T(1, y))
	if !m.CheckFeasible([]float64{2, 3}) {
		t.Error("feasible point rejected")
	}
	if m.CheckFeasible([]float64{2, 5}) {
		t.Error("constraint-violating point accepted")
	}
	if m.CheckFeasible([]float64{2.5, 1}) {
		t.Error("fractional integer accepted")
	}
	if m.CheckFeasible([]float64{6, 0}) {
		t.Error("bound-violating point accepted")
	}
	if m.CheckFeasible([]float64{1}) {
		t.Error("wrong arity accepted")
	}
}

// TestRandomMIPsAgainstBruteForce cross-checks the solver against
// exhaustive enumeration on random small binary programs.
func TestRandomMIPsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 60; trial++ {
		nv := 2 + rng.Intn(7) // up to 8 binaries
		nc := 1 + rng.Intn(4)
		m := NewModel(Maximize)
		obj := make([]float64, nv)
		vars := make([]Var, nv)
		for j := 0; j < nv; j++ {
			vars[j] = m.Binary("x")
			obj[j] = float64(rng.Intn(21) - 10)
			m.SetObjective(vars[j], obj[j])
		}
		type con struct {
			a   []float64
			rhs float64
			ge  bool
		}
		cons := make([]con, nc)
		for i := 0; i < nc; i++ {
			a := make([]float64, nv)
			var terms []Term
			for j := 0; j < nv; j++ {
				a[j] = float64(rng.Intn(11) - 3)
				terms = append(terms, T(a[j], vars[j]))
			}
			rhs := float64(rng.Intn(13) - 2)
			ge := rng.Intn(2) == 0
			cons[i] = con{a: a, rhs: rhs, ge: ge}
			if ge {
				m.AddGE("c", rhs, terms...)
			} else {
				m.AddLE("c", rhs, terms...)
			}
		}
		// Brute force.
		bestObj := math.Inf(-1)
		feasibleExists := false
		for mask := 0; mask < 1<<nv; mask++ {
			o := 0.0
			ok := true
			for i := 0; i < nc && ok; i++ {
				s := 0.0
				for j := 0; j < nv; j++ {
					if mask>>j&1 == 1 {
						s += cons[i].a[j]
					}
				}
				if cons[i].ge && s < cons[i].rhs {
					ok = false
				}
				if !cons[i].ge && s > cons[i].rhs {
					ok = false
				}
			}
			if !ok {
				continue
			}
			feasibleExists = true
			for j := 0; j < nv; j++ {
				if mask>>j&1 == 1 {
					o += obj[j]
				}
			}
			if o > bestObj {
				bestObj = o
			}
		}
		s := m.Solve(Options{})
		if !feasibleExists {
			if s.Status != Infeasible {
				t.Fatalf("trial %d: status=%v, brute force says infeasible", trial, s.Status)
			}
			continue
		}
		if s.Status != Optimal {
			t.Fatalf("trial %d: status=%v, want optimal", trial, s.Status)
		}
		if !almostEq(s.Objective, bestObj) {
			t.Fatalf("trial %d: obj=%v, brute force=%v", trial, s.Objective, bestObj)
		}
		// The reported assignment must actually achieve the objective.
		x := make([]float64, nv)
		got := 0.0
		for j := 0; j < nv; j++ {
			x[j] = float64(s.IntValue(vars[j]))
			got += obj[j] * x[j]
		}
		if !m.CheckFeasible(x) {
			t.Fatalf("trial %d: reported solution infeasible", trial)
		}
		if !almostEq(got, s.Objective) {
			t.Fatalf("trial %d: reported obj %v != recomputed %v", trial, s.Objective, got)
		}
	}
}

// TestRandomLPsSanity checks LP solutions are feasible and at least as
// good as a random feasible point.
func TestRandomLPsSanity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		nv := 2 + rng.Intn(5)
		m := NewModel(Minimize)
		vars := make([]Var, nv)
		for j := range vars {
			vars[j] = m.Float("x", 0, 10)
			m.SetObjective(vars[j], float64(rng.Intn(9)+1))
		}
		// Constraints sum x_j >= r keep it feasible (r <= 10*nv).
		var terms []Term
		for _, v := range vars {
			terms = append(terms, T(1, v))
		}
		r := float64(rng.Intn(5 * nv))
		m.AddGE("cover", r, terms...)
		s := m.Solve(Options{})
		if s.Status != Optimal {
			t.Fatalf("trial %d: status=%v", trial, s.Status)
		}
		x := make([]float64, nv)
		sum := 0.0
		for j, v := range vars {
			x[j] = s.Value(v)
			sum += x[j]
		}
		if sum < r-1e-5 {
			t.Fatalf("trial %d: constraint violated: %v < %v", trial, sum, r)
		}
	}
}

func TestCheckRejectsMalformedModels(t *testing.T) {
	cases := []struct {
		name  string
		build func(m *Model)
	}{
		{"var lo>hi", func(m *Model) { m.Float("bad", 5, 1) }},
		{"var NaN bound", func(m *Model) { m.Float("bad", math.NaN(), 1) }},
		{"con lo>hi", func(m *Model) {
			v := m.Binary("x")
			m.addCon("bad", 3, 1, []Term{T(1, v)})
		}},
		{"unknown variable", func(m *Model) {
			m.Binary("x")
			m.AddLE("bad", 1, T(1, Var(7)))
		}},
		{"non-finite coefficient", func(m *Model) {
			v := m.Binary("x")
			m.AddLE("bad", 1, T(math.Inf(1), v))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewModel(Maximize)
			tc.build(m)
			if err := m.Check(); err == nil {
				t.Fatal("Check() = nil, want error")
			}
			if s := m.Solve(Options{}); s.Status != Invalid {
				t.Fatalf("Solve status = %v, want Invalid", s.Status)
			}
		})
	}
}

func TestCheckAccumulatesDefects(t *testing.T) {
	m := NewModel(Minimize)
	m.Float("a", 5, 1)
	m.Float("b", 9, 2)
	err := m.Check()
	if err == nil {
		t.Fatal("Check() = nil, want error")
	}
	if want := "and 1 more defect"; !strings.Contains(err.Error(), want) {
		t.Errorf("Check() = %q, want mention of %q", err, want)
	}
}

func TestCheckOKModel(t *testing.T) {
	m := NewModel(Maximize)
	v := m.Binary("x")
	m.SetObjective(v, 1)
	m.AddLE("c", 1, T(1, v))
	if err := m.Check(); err != nil {
		t.Fatalf("Check() = %v, want nil", err)
	}
}

func TestStatusString(t *testing.T) {
	for st, want := range map[Status]string{
		Optimal: "optimal", Feasible: "feasible", Infeasible: "infeasible",
		Unbounded: "unbounded", NoSolution: "no-solution", Invalid: "invalid",
		Status(99): "status(99)",
	} {
		if got := st.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(st), got, want)
		}
	}
}

// TestModelString: the text form lists variables and rows in insertion
// order, terms sorted by variable, every sense, and survives a dangling
// variable reference.
func TestModelString(t *testing.T) {
	m := NewModel(Maximize)
	x := m.Binary("x")
	y := m.Float("y", 0, Infinity)
	m.SetObjective(y, -0.25)
	m.AddLE("le", 3, T(2, y), T(1, x))
	m.AddGE("ge", -1.5, T(1, y))
	m.AddEQ("eq", 1, T(1, x))
	m.addCon("rg", 0, 2, []Term{T(1, x), T(1, Var(7))})
	want := "var x int [0,1] obj=0\n" +
		"var y float [0,+Inf] obj=-0.25\n" +
		"row le: 1 x + 2 y <= 3\n" +
		"row ge: 1 y >= -1.5\n" +
		"row eq: 1 x = 1\n" +
		"row rg: 1 x + 1 ? in [0,2]\n"
	if got := m.String(); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}
