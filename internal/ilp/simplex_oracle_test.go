package ilp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestBoundedKernelMatchesRows runs the bounded kernel and solveLPRows on
// the same LPs: the root relaxation of every solve.golden model and 20
// random bound-tightened children of each, then 600 random LPs mixing
// free, negative-lower, upper-only, fixed and boxed variables with range,
// degenerate and duplicated rows. The kernels must agree on the status
// and, when optimal, on the objective within 1e-9·max(1,|obj|), and the
// bounded kernel's x must satisfy every row and bound within tolFeas. Its
// scratch is poisoned before every LP.
func TestBoundedKernelMatchesRows(t *testing.T) {
	sc := &lpScratch{}
	statuses := map[Status]int{}
	check := func(label string, m *Model, lo, hi []float64) {
		t.Helper()
		want := solveLPRows(m, lo, hi)
		sc.poison()
		got := solveLP(m, lo, hi, time.Time{}, nil, sc)
		statuses[got.status]++
		if got.status != want.status {
			t.Fatalf("%s: status %v, row kernel %v", label, got.status, want.status)
		}
		if got.status != Optimal {
			return
		}
		if math.Abs(got.obj-want.obj) > 1e-9*math.Max(1, math.Abs(want.obj)) {
			t.Fatalf("%s: objective %v, row kernel %v", label, got.obj, want.obj)
		}
		if err := lpInfeasibility(m, lo, hi, got.x); err != "" {
			t.Fatalf("%s: x = %v: %s", label, got.x, err)
		}
	}

	r := rand.New(rand.NewSource(31))
	for _, c := range goldenCases() {
		m := c.m
		n := len(m.vars)
		lo, hi := make([]float64, n), make([]float64, n)
		m.rootBoundsInto(lo, hi)
		check(c.label+"/root", m, lo, hi)
		root := solveLPRows(m, lo, hi)
		for k := 0; k < 20; k++ {
			clo, chi := append([]float64(nil), lo...), append([]float64(nil), hi...)
			for cuts := 1 + r.Intn(4); cuts > 0; cuts-- {
				j := r.Intn(n)
				v := float64(r.Intn(3))
				if root.status == Optimal {
					v = math.Floor(root.x[j]) + float64(r.Intn(2))
				}
				if r.Intn(2) == 0 {
					chi[j] = math.Min(chi[j], v)
				} else {
					clo[j] = math.Max(clo[j], v)
				}
			}
			check(fmt.Sprintf("%s/child%d", c.label, k), m, clo, chi)
		}
	}
	for i := 0; i < 600; i++ {
		m := randomBoundedLP(r)
		n := len(m.vars)
		lo, hi := make([]float64, n), make([]float64, n)
		for j, v := range m.vars {
			lo[j], hi[j] = v.lo, v.hi
		}
		check(fmt.Sprintf("lp[%d]", i), m, lo, hi)
	}
	if statuses[Optimal] < 2000 || statuses[Infeasible] < 1000 || statuses[Unbounded] < 100 {
		t.Fatalf("coverage: %v", statuses)
	}
}

// lpInfeasibility describes the first row or bound x violates by more
// than tolFeas, or returns "".
func lpInfeasibility(m *Model, lo, hi, x []float64) string {
	for j := range m.vars {
		if x[j] < lo[j]-tolFeas || x[j] > hi[j]+tolFeas {
			return fmt.Sprintf("x[%d] = %v outside [%v, %v]", j, x[j], lo[j], hi[j])
		}
	}
	r := &m.rows
	for i := range r.lo {
		s := 0.0
		for _, t := range r.terms(i) {
			s += t.Coeff * x[t.Var]
		}
		if s < r.lo[i]-tolFeas || s > r.hi[i]+tolFeas {
			return fmt.Sprintf("row %d = %v outside [%v, %v]", i, s, r.lo[i], r.hi[i])
		}
	}
	return ""
}

// randomBoundedLP draws a continuous LP of 1–8 variables, each free,
// boxed with a negative lower bound, bounded above only, fixed, bounded
// below only or boxed in [0, u], under 0–6 rows: <=, >=, == and ranges,
// some through the origin (degenerate at x = 0) and some repeating or
// scaling the previous row.
func randomBoundedLP(r *rand.Rand) *Model {
	sense := Minimize
	if r.Intn(2) == 1 {
		sense = Maximize
	}
	m := NewModel(sense)
	n := 1 + r.Intn(8)
	vars := make([]Var, n)
	for j := range vars {
		u := float64(1 + r.Intn(6))
		switch r.Intn(6) {
		case 0:
			vars[j] = m.Float("free", math.Inf(-1), Infinity)
		case 1:
			vars[j] = m.Float("neg", -u, float64(r.Intn(4)))
		case 2:
			vars[j] = m.Float("upper", math.Inf(-1), u-3)
		case 3:
			vars[j] = m.Float("fixed", u-2, u-2)
		case 4:
			vars[j] = m.Float("lower", u-4, Infinity)
		default:
			vars[j] = m.Float("box", 0, u)
		}
		m.SetObjective(vars[j], float64(r.Intn(11)-5)+0.25*float64(r.Intn(4)))
	}
	var prev []Term
	for i := r.Intn(7); i > 0; i-- {
		terms := make([]Term, 0, n)
		for _, v := range vars {
			if r.Intn(3) > 0 {
				terms = append(terms, T(float64(r.Intn(9)-4)+0.5*float64(r.Intn(2)), v))
			}
		}
		rhs := float64(r.Intn(13) - 6)
		switch r.Intn(6) {
		case 0:
			rhs = 0
		case 1:
			if prev != nil {
				k := float64(1 + r.Intn(3))
				terms = terms[:0]
				for _, t := range prev {
					terms = append(terms, T(k*t.Coeff, t.Var))
				}
				rhs *= k
			}
		}
		switch r.Intn(4) {
		case 0:
			m.AddLE("le", rhs, terms...)
		case 1:
			m.AddGE("ge", rhs, terms...)
		case 2:
			m.AddEQ("eq", rhs, terms...)
		default:
			m.addCon("range", rhs, rhs+float64(r.Intn(5)), terms)
		}
		prev = terms
	}
	return m
}

// solveLPRows is the LP kernel the solver ran before upper bounds became
// per-column values: every finite-width variable adds a "<= width" row
// with its own slack, and the simplex knows only the lower bound 0. It is
// kept, allocating and unhurried, as the oracle of the bounded kernel.
func solveLPRows(m *Model, lo, hi []float64) lpResult {
	p := &m.rows
	n := len(m.vars)
	for j := 0; j < n; j++ {
		if lo[j] > hi[j]+tolFeas {
			return lpResult{status: Infeasible}
		}
	}
	// Standard form: x = lo + x' (a bound row when hi is finite),
	// x = hi - x' when only hi is finite, x = x+ - x- when free, and a
	// fixed variable is a constant.
	var svars []stdVar
	var ubCol []int
	var ubWide []float64
	colOf := make([]int, n)
	fixed := make([]float64, n)
	for j := 0; j < n; j++ {
		fixed[j] = math.NaN()
		l, h := lo[j], hi[j]
		colOf[j] = len(svars)
		switch {
		case l == h:
			colOf[j], fixed[j] = -1, l
		case math.IsInf(l, -1) && math.IsInf(h, 1):
			svars = append(svars, stdVar{model: j, sign: 1}, stdVar{model: j, sign: -1})
		case math.IsInf(l, -1):
			svars = append(svars, stdVar{model: j, shift: h, sign: -1})
		default:
			svars = append(svars, stdVar{model: j, shift: l, sign: 1})
			if !math.IsInf(h, 1) {
				ubCol = append(ubCol, len(svars)-1)
				ubWide = append(ubWide, h-l)
			}
		}
	}
	isFree := func(c0, j int) bool {
		return svars[c0].sign == 1 && c0+1 < len(svars) && svars[c0+1].model == j && svars[c0+1].sign == -1
	}

	type row struct {
		src  int // constraint, or -1-i for ubCol[i]'s bound row
		flip bool
		rel  int8
		b    float64
	}
	var rows []row
	add := func(src int, rel int8, b float64) {
		flip := b < 0
		if flip {
			rel, b = -rel, -b
		}
		rows = append(rows, row{src, flip, rel, b})
	}
	for ci := range p.lo {
		shift := 0.0
		for k := p.start[ci]; k < p.start[ci+1]; k++ {
			if c0 := colOf[p.cols[k]]; c0 < 0 {
				shift += p.coefs[k] * fixed[p.cols[k]]
			} else {
				shift += p.coefs[k] * svars[c0].shift
			}
		}
		loC, hiC := p.lo[ci]-shift, p.hi[ci]-shift
		switch {
		case p.lo[ci] == p.hi[ci]:
			add(ci, 0, loC)
		default:
			if !math.IsInf(hiC, 1) {
				add(ci, -1, hiC)
			}
			if !math.IsInf(loC, -1) {
				add(ci, 1, loC)
			}
		}
	}
	for i := range ubCol {
		add(-1-i, -1, ubWide[i])
	}

	if len(rows) == 0 {
		x := make([]float64, n)
		obj := 0.0
		for j := 0; j < n; j++ {
			c := m.vars[j].obj
			if m.sense == Maximize {
				c = -c
			}
			x[j] = lo[j]
			if c < 0 {
				x[j] = hi[j]
			}
			if math.IsInf(x[j], 0) {
				if c != 0 {
					return lpResult{status: Unbounded}
				}
				x[j] = 0
			}
			obj += m.vars[j].obj * x[j]
		}
		return lpResult{status: Optimal, obj: obj, x: x}
	}

	nStruct, nSlack, nArt := len(svars), 0, 0
	for _, r := range rows {
		if r.rel != 0 {
			nSlack++
		}
		if r.rel >= 0 {
			nArt++
		}
	}
	total := nStruct + nSlack + nArt
	tab := make([][]float64, len(rows))
	basis := make([]int, len(rows))
	slackAt, artAt := nStruct, nStruct+nSlack
	for i, r := range rows {
		tr := make([]float64, total+1)
		if r.src < 0 {
			tr[ubCol[-1-r.src]] = 1
		} else {
			for k := p.start[r.src]; k < p.start[r.src+1]; k++ {
				j := p.cols[k]
				c0 := colOf[j]
				if c0 < 0 {
					continue
				}
				tr[c0] += p.coefs[k] * svars[c0].sign
				if isFree(c0, j) {
					tr[c0+1] -= p.coefs[k]
				}
			}
		}
		if r.flip {
			for k := 0; k < nStruct; k++ {
				tr[k] = -tr[k]
			}
		}
		tr[total] = r.b
		switch r.rel {
		case -1:
			tr[slackAt], basis[i] = 1, slackAt
			slackAt++
		case 1:
			tr[slackAt], tr[artAt], basis[i] = -1, 1, artAt
			slackAt++
			artAt++
		case 0:
			tr[artAt], basis[i] = 1, artAt
			artAt++
		}
		tab[i] = tr
	}
	sc := &lpScratch{col: make([]float64, len(rows))}
	cost := make([]float64, total+1)

	if nArt > 0 {
		for c := nStruct + nSlack; c < total; c++ {
			cost[c] = 1
		}
		for i, b := range basis {
			if b >= nStruct+nSlack {
				for k := range cost {
					cost[k] -= tab[i][k]
				}
			}
		}
		if runSimplexRows(tab, basis, cost, total, sc) == Unbounded || -cost[total] > tolFeas {
			return lpResult{status: Infeasible}
		}
		for i := range tab {
			if basis[i] < nStruct+nSlack {
				continue
			}
			basis[i] = -1
			for c := 0; c < nStruct+nSlack; c++ {
				if math.Abs(tab[i][c]) > tolPivot {
					for r := range tab {
						sc.col[r] = tab[r][c]
					}
					pivot(tab, basis, i, c, sc)
					break
				}
			}
			if basis[i] < 0 {
				clear(tab[i])
			}
		}
	}

	clear(cost)
	for j := 0; j < n; j++ {
		c := m.vars[j].obj
		if m.sense == Maximize {
			c = -c
		}
		if c0 := colOf[j]; c0 >= 0 {
			cost[c0] += c * svars[c0].sign
			if isFree(c0, j) {
				cost[c0+1] -= c
			}
		}
	}
	for c := nStruct + nSlack; c < total; c++ {
		cost[c] = math.Inf(1)
	}
	for i, b := range basis {
		if b >= 0 && cost[b] != 0 && !math.IsInf(cost[b], 1) {
			cb := cost[b]
			for k := range cost {
				cost[k] -= cb * tab[i][k]
			}
		}
	}
	if runSimplexRows(tab, basis, cost, total, sc) == Unbounded {
		return lpResult{status: Unbounded}
	}
	stdVal := make([]float64, total)
	for i, b := range basis {
		if b >= 0 {
			stdVal[b] = tab[i][total]
		}
	}
	x := make([]float64, n)
	obj := 0.0
	for j := 0; j < n; j++ {
		if c0 := colOf[j]; c0 < 0 {
			x[j] = fixed[j]
		} else {
			x[j] = svars[c0].shift + svars[c0].sign*stdVal[c0]
			if isFree(c0, j) {
				x[j] -= stdVal[c0+1]
			}
		}
		obj += m.vars[j].obj * x[j]
	}
	return lpResult{status: Optimal, obj: obj, x: x}
}

// runSimplexRows is runSimplex before bounds moved into the columns:
// Dantzig pricing, then Bland's rule, and a ratio test over rows whose
// basic variable falls to 0.
func runSimplexRows(tab [][]float64, basis []int, cost []float64, total int, sc *lpScratch) Status {
	mRows := len(tab)
	blandAfter := 20*(mRows+total) + 500
	for iter := 0; iter < 200*(mRows+total)+2000; iter++ {
		enter := -1
		best := -tolCost
		for c, v := range cost[:total] {
			if v < best {
				best, enter = v, c
				if iter >= blandAfter {
					break
				}
			}
		}
		if enter < 0 {
			return Optimal
		}
		leave, bestRatio := -1, math.Inf(1)
		for i := 0; i < mRows; i++ {
			a := tab[i][enter]
			sc.col[i] = a
			if a > tolPivot {
				r := tab[i][total] / a
				if r < bestRatio-tolFeas || (r < bestRatio+tolFeas && (leave < 0 || basis[i] < basis[leave])) {
					bestRatio, leave = r, i
				}
			}
		}
		if leave < 0 {
			return Unbounded
		}
		nz := pivot(tab, basis, leave, enter, sc)
		if ce := cost[enter]; ce != 0 {
			for _, k := range nz {
				cost[k] -= ce * tab[leave][k]
			}
			cost[enter] = 0
		}
	}
	return Optimal
}
