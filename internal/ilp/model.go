// Package ilp is a self-contained (mixed-)integer linear programming
// solver: a dense two-phase primal simplex for LP relaxations and
// branch-and-bound for integer variables.
//
// It substitutes for the CPLEX solver the paper's LRA scheduler relies on
// (§6): Medea only needs *a* MIP solver for the Figure-5 formulation, under
// a time budget, with graceful degradation to the best incumbent found.
package ilp

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Sense is the optimisation direction.
type Sense int

// Optimisation directions.
const (
	Minimize Sense = iota
	Maximize
)

// Var is an opaque handle to a model variable.
type Var int

// Infinity is the unbounded bound value.
var Infinity = math.Inf(1)

type varDef struct {
	name    string
	lo, hi  float64
	integer bool
	obj     float64
}

// Term is coefficient*variable in a linear expression.
type Term struct {
	Var   Var
	Coeff float64
}

// T builds a Term.
func T(c float64, v Var) Term { return Term{Var: v, Coeff: c} }

type conDef struct {
	name   string
	terms  []Term
	lo, hi float64 // lo <= terms <= hi; use ±Infinity
}

// Model is a mutable MIP model. Build it, then call Solve. Malformed
// additions (inverted bounds, unknown variables) do not panic: they are
// recorded and surfaced by Check, and Solve returns Invalid — schedulers
// building models from untrusted constraint sets degrade to a scheduling
// failure instead of crashing.
type Model struct {
	sense Sense
	vars  []varDef
	cons  []conDef
	errs  []error
	// prep is the cached CSR constraint matrix, built by prepare() and
	// read-only afterwards. Mutating the model (addVar/addCon)
	// invalidates it.
	prep *prepared
}

// prepared is the constraint matrix in compressed sparse row form: the
// terms of constraint i occupy cols/coefs[rowStart[i]:rowStart[i+1]].
// Branch-and-bound solves thousands of LP relaxations of the SAME
// constraint rows with different variable bounds; flattening the per-
// constraint term slices into three contiguous arrays removes the
// pointer-chasing from every row-assembly pass.
type prepared struct {
	rowStart []int
	cols     []int
	coefs    []float64
	conLo    []float64
	conHi    []float64
}

// prepare builds (or reuses) the CSR constraint matrix.
func (m *Model) prepare() *prepared {
	if m.prep != nil {
		return m.prep
	}
	m.prep = buildPrepared(m)
	return m.prep
}

// buildPrepared flattens m.cons into CSR form without touching m.prep,
// so callers that reach solveLP without a prior prepare() (direct LP
// tests) can build a local copy race-free.
func buildPrepared(m *Model) *prepared {
	nTerms := 0
	for i := range m.cons {
		nTerms += len(m.cons[i].terms)
	}
	p := &prepared{
		rowStart: make([]int, len(m.cons)+1),
		cols:     make([]int, 0, nTerms),
		coefs:    make([]float64, 0, nTerms),
		conLo:    make([]float64, len(m.cons)),
		conHi:    make([]float64, len(m.cons)),
	}
	for i := range m.cons {
		c := &m.cons[i]
		p.rowStart[i] = len(p.cols)
		for _, t := range c.terms {
			p.cols = append(p.cols, int(t.Var))
			p.coefs = append(p.coefs, t.Coeff)
		}
		p.conLo[i], p.conHi[i] = c.lo, c.hi
	}
	p.rowStart[len(m.cons)] = len(p.cols)
	return p
}

// NewModel returns an empty model with the given objective sense.
func NewModel(sense Sense) *Model { return &Model{sense: sense} }

// NumVars returns the number of variables.
func (m *Model) NumVars() int { return len(m.vars) }

// NumConstraints returns the number of constraints.
func (m *Model) NumConstraints() int { return len(m.cons) }

// Binary adds a {0,1} variable.
func (m *Model) Binary(name string) Var { return m.addVar(name, 0, 1, true) }

// Int adds an integer variable with inclusive bounds.
func (m *Model) Int(name string, lo, hi float64) Var { return m.addVar(name, lo, hi, true) }

// Float adds a continuous variable with inclusive bounds.
func (m *Model) Float(name string, lo, hi float64) Var { return m.addVar(name, lo, hi, false) }

func (m *Model) addVar(name string, lo, hi float64, integer bool) Var {
	if lo > hi {
		m.errs = append(m.errs, fmt.Errorf("ilp: variable %s has lo %v > hi %v", name, lo, hi))
	}
	if math.IsNaN(lo) || math.IsNaN(hi) {
		m.errs = append(m.errs, fmt.Errorf("ilp: variable %s has NaN bound [%v,%v]", name, lo, hi))
	}
	m.vars = append(m.vars, varDef{name: name, lo: lo, hi: hi, integer: integer})
	m.prep = nil
	return Var(len(m.vars) - 1)
}

// SetObjective sets the objective coefficient of v (default 0).
func (m *Model) SetObjective(v Var, coeff float64) { m.vars[v].obj = coeff }

// AddObjective adds to the objective coefficient of v.
func (m *Model) AddObjective(v Var, coeff float64) { m.vars[v].obj += coeff }

// AddLE adds the constraint terms <= rhs.
func (m *Model) AddLE(name string, rhs float64, terms ...Term) {
	m.addCon(name, math.Inf(-1), rhs, terms)
}

// AddGE adds the constraint terms >= rhs.
func (m *Model) AddGE(name string, rhs float64, terms ...Term) {
	m.addCon(name, rhs, Infinity, terms)
}

// AddEQ adds the constraint terms == rhs.
func (m *Model) AddEQ(name string, rhs float64, terms ...Term) {
	m.addCon(name, rhs, rhs, terms)
}

// AddRange adds lo <= terms <= hi.
func (m *Model) AddRange(name string, lo, hi float64, terms ...Term) {
	m.addCon(name, lo, hi, terms)
}

func (m *Model) addCon(name string, lo, hi float64, terms []Term) {
	if lo > hi {
		m.errs = append(m.errs, fmt.Errorf("ilp: constraint %s has lo %v > hi %v", name, lo, hi))
	}
	if math.IsNaN(lo) || math.IsNaN(hi) {
		m.errs = append(m.errs, fmt.Errorf("ilp: constraint %s has NaN bound [%v,%v]", name, lo, hi))
	}
	for _, t := range terms {
		if int(t.Var) < 0 || int(t.Var) >= len(m.vars) {
			m.errs = append(m.errs, fmt.Errorf("ilp: constraint %s references unknown variable %d", name, t.Var))
		}
		if math.IsNaN(t.Coeff) || math.IsInf(t.Coeff, 0) {
			m.errs = append(m.errs, fmt.Errorf("ilp: constraint %s has non-finite coefficient %v", name, t.Coeff))
		}
	}
	m.cons = append(m.cons, conDef{name: name, terms: append([]Term(nil), terms...), lo: lo, hi: hi})
	m.prep = nil
}

// Check reports the defects accumulated while building the model: inverted
// or NaN variable bounds, inverted constraint ranges, references to unknown
// variables and non-finite coefficients. A model that fails Check solves to
// Invalid; callers that build models from external input (the LRA ILP
// builder) check first and fall back to a heuristic placement instead of
// crashing.
func (m *Model) Check() error {
	switch len(m.errs) {
	case 0:
		return nil
	case 1:
		return m.errs[0]
	default:
		return fmt.Errorf("%w (and %d more defects)", m.errs[0], len(m.errs)-1)
	}
}

// String prints the model one variable and one constraint per line, in
// the order they were added: "var <name> int|float [lo,hi] obj=<c>" and
// "row <name>: <c> <var> + ... <=|>=|= <rhs>" ("in [lo,hi]" for a range),
// terms sorted by variable. Floats are printed shortest-exact, so two
// models print alike only if they are the same model: golden files of a
// model builder compare this text.
func (m *Model) String() string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	for _, v := range m.vars {
		kind := "float"
		if v.integer {
			kind = "int"
		}
		fmt.Fprintf(&b, "var %s %s [%s,%s] obj=%s\n", v.name, kind, f(v.lo), f(v.hi), f(v.obj))
	}
	for _, c := range m.cons {
		terms := slices.Clone(c.terms)
		slices.SortStableFunc(terms, func(x, y Term) int { return int(x.Var) - int(y.Var) })
		fmt.Fprintf(&b, "row %s:", c.name)
		for i, t := range terms {
			if i > 0 {
				b.WriteString(" +")
			}
			name := "?" // a defect Check reports
			if int(t.Var) >= 0 && int(t.Var) < len(m.vars) {
				name = m.vars[t.Var].name
			}
			fmt.Fprintf(&b, " %s %s", f(t.Coeff), name)
		}
		switch {
		case c.lo == c.hi:
			fmt.Fprintf(&b, " = %s\n", f(c.hi))
		case math.IsInf(c.lo, -1):
			fmt.Fprintf(&b, " <= %s\n", f(c.hi))
		case math.IsInf(c.hi, 1):
			fmt.Fprintf(&b, " >= %s\n", f(c.lo))
		default:
			fmt.Fprintf(&b, " in [%s,%s]\n", f(c.lo), f(c.hi))
		}
	}
	return b.String()
}

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	// Optimal: proven optimal within tolerances.
	Optimal Status = iota
	// Feasible: an integer-feasible incumbent was found but optimality was
	// not proven before the deadline or node limit.
	Feasible
	// Infeasible: no feasible solution exists.
	Infeasible
	// Unbounded: the relaxation is unbounded in the objective direction.
	Unbounded
	// NoSolution: deadline or node limit hit before any incumbent.
	NoSolution
	// Invalid: the model failed Check (malformed bounds, unknown
	// variables); nothing was solved.
	Invalid
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case NoSolution:
		return "no-solution"
	case Invalid:
		return "invalid"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Solution is the result of a solve.
type Solution struct {
	Status    Status
	Objective float64
	values    []float64
	// Nodes is the number of branch-and-bound nodes explored, the root
	// counted once: 1 for a solve that closes at the root. A model that
	// passes Check reports at least 1, because its root LP is solved
	// first; that holds when the deadline stops the search right after it.
	Nodes int
	// DeadlineHit reports that the solve stopped on Options.Deadline (or
	// the node limit): with an incumbent the Status is Feasible, without
	// one it is NoSolution. Callers use it to count budget exhaustion
	// separately from ordinary optimal/infeasible outcomes.
	DeadlineHit bool
	// Approximate marks solutions produced by the relaxation+rounding
	// path (ModeApprox). An Optimal approximate solution
	// met the LP relaxation bound and is provably optimal regardless.
	Approximate bool
	// WarmUsed reports that a supplied warm start (Options.WarmStarts)
	// was feasible and seeded the incumbent.
	WarmUsed bool
	// Branched lists, in first-branch order (capped), the variables the
	// deterministic dive branched on. Callers solving near-identical
	// models each cycle feed it back through Options.BranchPriority.
	Branched []Var
}

// Value returns the value of v, rounded to exact integrality for integer
// variables.
func (s *Solution) Value(v Var) float64 {
	if s.values == nil {
		return 0
	}
	return s.values[v]
}

// IntValue returns the value of v rounded to the nearest integer.
func (s *Solution) IntValue(v Var) int { return int(math.Round(s.Value(v))) }
