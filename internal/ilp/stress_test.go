package ilp

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestRandomGeneralIntegerMIPs cross-checks general-integer (not just 0/1)
// models against exhaustive enumeration.
func TestRandomGeneralIntegerMIPs(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 40; trial++ {
		nv := 2 + rng.Intn(3) // 2–4 vars
		ub := 3               // each in 0..3 -> at most 4^4 = 256 points
		m := NewModel(Maximize)
		obj := make([]float64, nv)
		vars := make([]Var, nv)
		for j := 0; j < nv; j++ {
			vars[j] = m.Int("x", 0, float64(ub))
			obj[j] = float64(rng.Intn(15) - 5)
			m.SetObjective(vars[j], obj[j])
		}
		nc := 1 + rng.Intn(3)
		type con struct {
			a   []float64
			rhs float64
		}
		cons := make([]con, nc)
		for i := range cons {
			a := make([]float64, nv)
			terms := make([]Term, nv)
			for j := 0; j < nv; j++ {
				a[j] = float64(rng.Intn(7) - 2)
				terms[j] = T(a[j], vars[j])
			}
			rhs := float64(rng.Intn(15))
			cons[i] = con{a: a, rhs: rhs}
			m.AddLE("c", rhs, terms...)
		}
		// Brute force.
		best := math.Inf(-1)
		points := 1
		for j := 0; j < nv; j++ {
			points *= ub + 1
		}
		for p := 0; p < points; p++ {
			x := make([]float64, nv)
			q := p
			for j := 0; j < nv; j++ {
				x[j] = float64(q % (ub + 1))
				q /= ub + 1
			}
			ok := true
			for _, c := range cons {
				s := 0.0
				for j := 0; j < nv; j++ {
					s += c.a[j] * x[j]
				}
				if s > c.rhs+1e-9 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			o := 0.0
			for j := 0; j < nv; j++ {
				o += obj[j] * x[j]
			}
			if o > best {
				best = o
			}
		}
		sol := m.Solve(Options{})
		if math.IsInf(best, -1) {
			if sol.Status != Infeasible {
				t.Fatalf("trial %d: status %v, brute force infeasible", trial, sol.Status)
			}
			continue
		}
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		if math.Abs(sol.Objective-best) > 1e-5 {
			t.Fatalf("trial %d: obj %v, brute %v", trial, sol.Objective, best)
		}
	}
}

// TestDegenerateLPs exercises classically degenerate structures that can
// cycle a naive simplex.
func TestDegenerateLPs(t *testing.T) {
	// Beale's cycling example (minimisation).
	m := NewModel(Minimize)
	x1 := m.Float("x1", 0, Infinity)
	x2 := m.Float("x2", 0, Infinity)
	x3 := m.Float("x3", 0, Infinity)
	x4 := m.Float("x4", 0, Infinity)
	m.SetObjective(x1, -0.75)
	m.SetObjective(x2, 150)
	m.SetObjective(x3, -0.02)
	m.SetObjective(x4, 6)
	m.AddLE("c1", 0, T(0.25, x1), T(-60, x2), T(-0.04, x3), T(9, x4))
	m.AddLE("c2", 0, T(0.5, x1), T(-90, x2), T(-0.02, x3), T(3, x4))
	m.AddLE("c3", 1, T(1, x3))
	s := m.Solve(Options{})
	if s.Status != Optimal {
		t.Fatalf("Beale LP status = %v", s.Status)
	}
	if math.Abs(s.Objective-(-0.05)) > 1e-6 {
		t.Errorf("Beale objective = %v, want -0.05", s.Objective)
	}
}

// TestManyEqualities: square-ish equality systems solved via phase 1.
func TestManyEqualities(t *testing.T) {
	m := NewModel(Minimize)
	x := m.Float("x", 0, Infinity)
	y := m.Float("y", 0, Infinity)
	z := m.Float("z", 0, Infinity)
	m.SetObjective(x, 1)
	m.SetObjective(y, 1)
	m.SetObjective(z, 1)
	m.AddEQ("e1", 6, T(1, x), T(1, y), T(1, z))
	m.AddEQ("e2", 1, T(1, x), T(-1, y))
	m.AddEQ("e3", 2, T(1, y), T(-1, z))
	// Unique solution: y = z+2, x = z+3 -> 3z+5 = 6 -> z = 1/3.
	s := m.Solve(Options{})
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if math.Abs(s.Value(z)-1.0/3) > 1e-6 || math.Abs(s.Value(x)-10.0/3) > 1e-6 {
		t.Errorf("x=%v y=%v z=%v", s.Value(x), s.Value(y), s.Value(z))
	}
}

// TestRedundantRows: duplicated constraints must not confuse phase 1.
func TestRedundantRows(t *testing.T) {
	m := NewModel(Maximize)
	x := m.Float("x", 0, Infinity)
	m.SetObjective(x, 1)
	for i := 0; i < 5; i++ {
		m.AddEQ("dup", 4, T(1, x))
	}
	s := m.Solve(Options{})
	if s.Status != Optimal || math.Abs(s.Value(x)-4) > 1e-9 {
		t.Fatalf("status=%v x=%v", s.Status, s.Value(x))
	}
}

// TestWarmStartUsedAsIncumbent: a deliberately poor-but-feasible warm
// start must not degrade the final answer, and an infeasible warm start
// must be ignored.
func TestWarmStartUsedAsIncumbent(t *testing.T) {
	build := func() (*Model, []Var) {
		m := NewModel(Maximize)
		vars := make([]Var, 4)
		w := []float64{2, 3, 4, 5}
		v := []float64{3, 4, 5, 6}
		terms := make([]Term, 4)
		for i := range vars {
			vars[i] = m.Binary("x")
			m.SetObjective(vars[i], v[i])
			terms[i] = T(w[i], vars[i])
		}
		m.AddLE("cap", 5, terms...)
		return m, vars
	}
	m, vars := build()
	poor := map[Var]float64{vars[0]: 1, vars[1]: 0, vars[2]: 0, vars[3]: 0} // value 3
	s := m.Solve(Options{WarmStarts: []map[Var]float64{poor}})
	if s.Status != Optimal || math.Abs(s.Objective-7) > 1e-6 {
		t.Fatalf("poor warm start degraded solve: %v %v", s.Status, s.Objective)
	}
	m2, vars2 := build()
	infeasible := map[Var]float64{vars2[0]: 1, vars2[1]: 1, vars2[2]: 1, vars2[3]: 1} // weight 14 > 5
	s2 := m2.Solve(Options{WarmStarts: []map[Var]float64{infeasible}})
	if s2.Status != Optimal || math.Abs(s2.Objective-7) > 1e-6 {
		t.Fatalf("infeasible warm start broke solve: %v %v", s2.Status, s2.Objective)
	}
	m3, vars3 := build()
	outOfRange := map[Var]float64{vars3[0]: 7}
	s3 := m3.Solve(Options{WarmStarts: []map[Var]float64{outOfRange}})
	if s3.Status != Optimal || math.Abs(s3.Objective-7) > 1e-6 {
		t.Fatalf("out-of-range warm start broke solve: %v %v", s3.Status, s3.Objective)
	}
	m4, vars4 := build()
	badVar := map[Var]float64{Var(99): 1}
	s4 := m4.Solve(Options{WarmStarts: []map[Var]float64{badVar}})
	_ = vars4
	if s4.Status != Optimal || math.Abs(s4.Objective-7) > 1e-6 {
		t.Fatalf("unknown-var warm start broke solve: %v %v", s4.Status, s4.Objective)
	}
}

// capKnapsack is a 25-item 0/1 knapsack whose search takes more than a
// few nodes, with the empty knapsack as a feasible warm start.
func capKnapsack() (*Model, map[Var]float64) {
	rng := rand.New(rand.NewSource(5))
	m := NewModel(Maximize)
	var terms []Term
	empty := map[Var]float64{}
	for i := 0; i < 25; i++ {
		x := m.Binary("x")
		m.SetObjective(x, float64(1+rng.Intn(9)))
		terms = append(terms, T(float64(1+rng.Intn(5)), x))
		empty[x] = 0
	}
	m.AddLE("cap", 17, terms...)
	return m, empty
}

// TestMaxNodesLimit: a hard node cap returns the incumbent with Feasible
// rather than hanging or claiming optimality.
func TestMaxNodesLimit(t *testing.T) {
	m, empty := capKnapsack()
	// The uncapped search needs more than 3 nodes, and a capped search
	// walks a prefix of it, so at the cap it cannot have closed.
	if full := m.Solve(Options{}); full.Nodes <= 3 {
		t.Fatalf("fixture closes in %d nodes; the cap of 3 does not bind", full.Nodes)
	}
	s := m.Solve(Options{MaxNodes: 3, WarmStarts: []map[Var]float64{empty}})
	if s.Nodes > 3 {
		t.Errorf("explored %d nodes, cap 3", s.Nodes)
	}
	if s.Status != Feasible || !s.DeadlineHit {
		t.Errorf("search cut at the node cap ended %v, DeadlineHit %v; want Feasible, true", s.Status, s.DeadlineHit)
	}
}

// TestDeadlineCountsTheRoot moves a virtual clock's expiry over every
// clock read of a warm-started solve. Wherever the deadline falls, the
// root LP has been solved, so the solve reports at least one node; and a
// solve the deadline did not stop is Optimal.
func TestDeadlineCountsTheRoot(t *testing.T) {
	m, empty := capKnapsack()
	base := time.Unix(0, 0)
	opts := Options{Deadline: base.Add(time.Hour), WarmStarts: []map[Var]float64{empty}}
	reads := 0
	opts.Clock = func() time.Time { reads++; return base }
	if s := m.Solve(opts); s.Status != Optimal || s.DeadlineHit {
		t.Fatalf("unexpired solve ended %v, DeadlineHit %v", s.Status, s.DeadlineHit)
	}
	total := reads
	for expire := 0; expire <= total; expire++ {
		reads = 0
		opts.Clock = func() time.Time {
			reads++
			if reads > expire {
				return base.Add(2 * time.Hour)
			}
			return base
		}
		s := m.Solve(opts)
		if s.Nodes < 1 {
			t.Errorf("deadline after %d of %d clock reads: Nodes %d, want >= 1", expire, total, s.Nodes)
		}
		if !s.DeadlineHit && s.Status != Optimal {
			t.Errorf("deadline after %d of %d clock reads: %v without DeadlineHit", expire, total, s.Status)
		}
	}
}

// TestBudgetSplitReachesEverySubtree is the regression wall of the
// hand-over to per-subtree search: a cold solve of the placement fixture
// whose node budget binds must still find a good incumbent. Splitting
// the budget over the dive's open subtrees reaches 944 within 2,000
// nodes; one plain depth-first search spends the budget in the first
// subtree and ends at 641.
func TestBudgetSplitReachesEverySubtree(t *testing.T) {
	s := placementFixture().Solve(Options{MaxNodes: 2000})
	if s.Status != Feasible || s.Nodes > 2000 {
		t.Fatalf("solve ended %v after %d nodes, want Feasible within the budget", s.Status, s.Nodes)
	}
	if s.Objective < 944 {
		t.Errorf("objective %v, want >= 944", s.Objective)
	}
}
