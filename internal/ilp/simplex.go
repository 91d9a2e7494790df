package ilp

import (
	"math"
	"time"
)

// Numeric tolerances for the simplex.
const (
	tolPivot = 1e-9 // smallest acceptable pivot magnitude
	tolFeas  = 1e-7 // feasibility / phase-1 tolerance
	tolCost  = 1e-9 // reduced-cost optimality tolerance
	tolInt   = 1e-6 // integrality tolerance (branch-and-bound)
)

// statusDeadline is the internal LP outcome "stopped on the deadline":
// never surfaced through the public API, branch-and-bound translates it
// into DeadlineHit + the best incumbent (or NoSolution).
const statusDeadline Status = -1

// deadlineCheckEvery is the pivot granularity of deadline enforcement:
// runSimplex consults the clock once per this many iterations, so a solve
// can overrun its budget by at most one check window of pivots — the
// "one pivot granularity" the scheduling-latency bound (§7.3) tolerates.
const deadlineCheckEvery = 32

// lpResult is the outcome of one LP relaxation solve.
type lpResult struct {
	status Status // Optimal, Infeasible, Unbounded or statusDeadline
	obj    float64
	// x holds the values in original model-variable space. It aliases the
	// scratch's extraction buffer: the caller owns it only until its next
	// solveLP call on the same scratch, and must snap() anything retained.
	x []float64
}

// stdVar describes how one standard-form variable maps back to a model
// variable: modelValue = shift + sign*stdValue.
type stdVar struct {
	model int     // model variable index, -1 for slack/artificial
	shift float64 // constant offset
	sign  float64 // +1 or -1
}

// solveLP solves the LP relaxation of m with per-variable bound overrides
// lo/hi (same length as m.vars) using a dense two-phase bounded-variable
// primal simplex: a finite upper bound is a value per column, not a row
// (see runSimplex). Integrality is ignored. A non-zero deadline is
// enforced inside both phases' pivot loops (not only between
// branch-and-bound nodes), so a degenerate LP cannot blow the budget
// before the search even starts.
//
// sc is the reusable scratch all working memory is drawn from (nil
// allocates a private one). Every scratch element read is written first within this
// call, so a scratch full of garbage — see SolverArena.poison — cannot
// perturb the result.
func solveLP(m *Model, lo, hi []float64, deadline time.Time, clk func() time.Time, sc *lpScratch) lpResult {
	if clk == nil {
		clk = time.Now
	}
	if sc == nil {
		sc = &lpScratch{}
	}
	p := &m.rows
	sc.lps++
	n := len(m.vars)
	for j := 0; j < n; j++ {
		if lo[j] > hi[j]+tolFeas {
			return lpResult{status: Infeasible}
		}
	}

	// Standard-form variable construction. Each model variable becomes one
	// (or, if free, two) non-negative std variables; when its range width
	// is finite that width is the column's upper bound.
	svars := sc.svars[:0]
	colOf := grow(sc.colOf, n)
	fixed := grow(sc.fixed, n) // value for width-0 vars, NaN otherwise
	sc.colOf, sc.fixed = colOf, fixed
	for j := range fixed {
		fixed[j] = math.NaN()
	}
	for j := 0; j < n; j++ {
		ljo, hjo := lo[j], hi[j]
		switch {
		case ljo == hjo:
			// Fixed variable: substitute the constant, no column.
			colOf[j] = -1
			fixed[j] = ljo
		case math.IsInf(ljo, -1) && math.IsInf(hjo, 1):
			colOf[j] = len(svars)
			svars = append(svars, stdVar{model: j, sign: 1})  // positive part
			svars = append(svars, stdVar{model: j, sign: -1}) // negative part
		case math.IsInf(ljo, -1):
			// x = hi - x', x' >= 0.
			colOf[j] = len(svars)
			svars = append(svars, stdVar{model: j, shift: hjo, sign: -1})
		default:
			// x = lo + x', 0 <= x' <= hi-lo.
			colOf[j] = len(svars)
			svars = append(svars, stdVar{model: j, shift: ljo, sign: 1})
		}
	}
	sc.svars = svars

	// Row pre-pass over the CSR: relation, right-hand side and flip of
	// every tableau row, so the tableau's shape is known before the first
	// coefficient is written. A constraint yields one row (== or one-sided)
	// or two (a range: <= hi, then >= lo). Rows with a negative right-hand
	// side are flipped to make it non-negative.
	nStructural := len(svars)
	rowSrc, rowFlip := sc.rowSrc[:0], sc.rowFlip[:0]
	rowRel, rowB := sc.rowRel[:0], sc.rowB[:0]
	appendRow := func(src int, rel int8, b float64) {
		flip := b < 0
		if flip {
			rel, b = -rel, -b
		}
		rowSrc, rowFlip = append(rowSrc, src), append(rowFlip, flip)
		rowRel, rowB = append(rowRel, rel), append(rowB, b)
	}
	for ci := 0; ci < len(p.lo); ci++ {
		shiftSum := 0.0
		for k := p.start[ci]; k < p.start[ci+1]; k++ {
			if c0 := colOf[p.cols[k]]; c0 < 0 {
				shiftSum += p.coefs[k] * fixed[p.cols[k]]
			} else {
				shiftSum += p.coefs[k] * svars[c0].shift
			}
		}
		loC, hiC := p.lo[ci]-shiftSum, p.hi[ci]-shiftSum
		switch {
		case p.lo[ci] == p.hi[ci]:
			appendRow(ci, 0, loC)
		default:
			if !math.IsInf(hiC, 1) {
				appendRow(ci, -1, hiC)
			}
			if !math.IsInf(loC, -1) {
				appendRow(ci, 1, loC)
			}
		}
	}
	sc.rowSrc, sc.rowFlip, sc.rowRel, sc.rowB = rowSrc, rowFlip, rowRel, rowB

	mRows := len(rowRel)
	if mRows == 0 {
		// Bound-only problem: optimum at a bound per objective sign.
		x := grow(sc.x, n)
		sc.x = x
		obj := 0.0
		for j := 0; j < n; j++ {
			c := m.vars[j].obj
			minimizeC := c
			if m.sense == Maximize {
				minimizeC = -c
			}
			switch {
			case minimizeC > 0:
				x[j] = lo[j]
			case minimizeC < 0:
				x[j] = hi[j]
			default:
				x[j] = lo[j]
			}
			switch {
			case math.IsInf(x[j], 0) && c != 0:
				return lpResult{status: Unbounded}
			case math.IsInf(x[j], 0) || x[j] == 0:
				// A free side without cost rests at 0, and rootBoundsInto's −0
				// (math.Ceil(0 − tolInt)) is +0, as lo + x′ makes it with rows.
				x[j] = 0
			}
			obj += c * x[j]
		}
		return lpResult{status: Optimal, obj: obj, x: x}
	}

	// Tableau columns: structural | slacks | artificials | rhs. A row with
	// <= and b>=0 gets a slack usable as initial basis; >= rows get a
	// surplus plus an artificial; == rows get an artificial.
	nSlack, nArt := 0, 0
	for _, rel := range rowRel {
		if rel != 0 {
			nSlack++
		}
		if rel >= 0 {
			nArt++
		}
	}
	totalCols := nStructural + nSlack + nArt
	stride := totalCols + 1
	// Column upper bounds: hi - lo for x = lo + x' (+Inf when hi is, as for
	// every other column). No column starts complemented.
	ub, flipped := grow(sc.ub, totalCols), grow(sc.flipped, totalCols)
	sc.ub, sc.flipped = ub, flipped
	for c := range ub {
		ub[c], flipped[c] = math.Inf(1), false
		if c < nStructural && svars[c].sign == 1 {
			ub[c] = hi[svars[c].model] - svars[c].shift
		}
	}
	tabF := grow(sc.tabF, mRows*stride)
	sc.tabF = tabF
	clear(tabF)
	tab := sc.tab[:0]
	basis := grow(sc.basis, mRows)
	sc.basis = basis
	slackAt, artAt := nStructural, nStructural+nSlack
	for i := 0; i < mRows; i++ {
		tr := tabF[i*stride : (i+1)*stride : (i+1)*stride]
		ci := rowSrc[i]
		for k := p.start[ci]; k < p.start[ci+1]; k++ {
			j := p.cols[k]
			c0 := colOf[j]
			if c0 < 0 {
				continue
			}
			coeff := p.coefs[k]
			sv := svars[c0]
			tr[c0] += coeff * sv.sign
			if sv.sign == 1 && c0+1 < len(svars) && svars[c0+1].model == j && svars[c0+1].sign == -1 {
				tr[c0+1] += -coeff
			}
		}
		if rowFlip[i] {
			// The whole structural part, zeros included: a flipped row holds
			// -0 where it has no coefficient.
			for k := 0; k < nStructural; k++ {
				tr[k] = -tr[k]
			}
		}
		tr[totalCols] = rowB[i]
		switch rowRel[i] {
		case -1:
			tr[slackAt] = 1
			basis[i] = slackAt
			slackAt++
		case 1:
			tr[slackAt] = -1
			slackAt++
			tr[artAt] = 1
			basis[i] = artAt
			artAt++
		case 0:
			tr[artAt] = 1
			basis[i] = artAt
			artAt++
		}
		tab = append(tab, tr)
	}
	sc.tab = tab

	cost := grow(sc.cost, stride)
	sc.cost = cost
	sc.col = grow(sc.col, mRows)

	// Phase 1: minimise the sum of artificials.
	if nArt > 0 {
		clear(cost)
		for c := nStructural + nSlack; c < totalCols; c++ {
			cost[c] = 1
		}
		// Price out the basic artificials.
		for i, b := range basis {
			if b >= nStructural+nSlack {
				for k := 0; k <= totalCols; k++ {
					cost[k] -= tab[i][k]
				}
			}
		}
		switch runSimplex(tab, basis, cost, totalCols, totalCols, deadline, clk, sc) {
		case Unbounded:
			// Phase 1 objective is bounded below by 0; unbounded here means
			// numerical trouble. Report infeasible conservatively.
			return lpResult{status: Infeasible}
		case statusDeadline:
			return lpResult{status: statusDeadline}
		}
		if -cost[totalCols] > tolFeas { // objective value = -cost[rhs]
			return lpResult{status: Infeasible}
		}
		// Drive remaining artificials out of the basis.
		for i := 0; i < mRows; i++ {
			if basis[i] < nStructural+nSlack {
				continue
			}
			pivoted := false
			for c := 0; c < nStructural+nSlack; c++ {
				if math.Abs(tab[i][c]) > tolPivot {
					for r := range tab {
						sc.col[r] = tab[r][c]
					}
					pivot(tab, basis, i, c, sc)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row; zero it so it never constrains again.
				for k := 0; k <= totalCols; k++ {
					tab[i][k] = 0
				}
				basis[i] = -1
			}
		}
	}

	// Phase 2: minimise the real objective over structural columns. A
	// column phase 1 left complemented costs the negation (the constant
	// part of c·(u − x′) is not needed: the objective is recomputed from x).
	clear(cost)
	for j := 0; j < n; j++ {
		c := m.vars[j].obj
		if m.sense == Maximize {
			c = -c
		}
		if colOf[j] < 0 {
			continue
		}
		c0 := colOf[j]
		sv := svars[c0]
		cost[c0] += c * sv.sign
		if sv.sign == 1 && c0+1 < len(svars) && svars[c0+1].model == j && svars[c0+1].sign == -1 {
			cost[c0+1] += -c
		}
		if flipped[c0] {
			cost[c0] = -cost[c0]
		}
	}
	// Forbid artificials from re-entering by giving them prohibitive cost.
	for c := nStructural + nSlack; c < totalCols; c++ {
		cost[c] = math.Inf(1)
	}
	// Price out basic columns.
	for i, b := range basis {
		if b >= 0 && b < totalCols && cost[b] != 0 && !math.IsInf(cost[b], 1) {
			cb := cost[b]
			for k := 0; k <= totalCols; k++ {
				cost[k] -= cb * tab[i][k]
			}
		}
	}
	switch runSimplex(tab, basis, cost, totalCols, nStructural+nSlack, deadline, clk, sc) {
	case Unbounded:
		return lpResult{status: Unbounded}
	case statusDeadline:
		return lpResult{status: statusDeadline}
	}

	// Extract std values, then map back to model space. A complemented
	// column's value v is u − x′, so x = lo + u − v = hi − v.
	stdVal := grow(sc.stdVal, totalCols)
	sc.stdVal = stdVal
	clear(stdVal)
	for i, b := range basis {
		if b >= 0 && b < totalCols {
			stdVal[b] = tab[i][totalCols]
		}
	}
	x := grow(sc.x, n)
	sc.x = x
	for j := 0; j < n; j++ {
		if colOf[j] < 0 {
			x[j] = fixed[j]
			continue
		}
		c0 := colOf[j]
		if flipped[c0] {
			x[j] = hi[j] - stdVal[c0]
			continue
		}
		sv := svars[c0]
		v := sv.shift + sv.sign*stdVal[c0]
		if sv.sign == 1 && c0+1 < len(svars) && svars[c0+1].model == j && svars[c0+1].sign == -1 {
			v -= stdVal[c0+1]
		}
		x[j] = v
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += m.vars[j].obj * x[j]
	}
	return lpResult{status: Optimal, obj: obj, x: x}
}

// runSimplex runs primal simplex iterations on the tableau until optimal,
// unbounded, or the deadline. cost is the current (priced-out) objective
// row with the running negative objective value in its rhs slot. Dantzig
// pricing over the first nEnter columns, with a switch to Bland's rule,
// guards against cycling. sc.col, one entry per row, receives the
// entering column for the pivot.
//
// Columns are bounded above by sc.ub. A non-basic column sits at 0 or, if
// complemented (x' = u − x, sc.flipped: column and cost negated, rhs
// shifted), at u. The entering column rises until a basic variable falls
// to 0 (pivot), a basic variable reaches its bound (complemented in its
// own row, then pivot) or it reaches its own bound (a flip, no pivot; it
// wins ties within tolFeas).
func runSimplex(tab [][]float64, basis []int, cost []float64, totalCols, nEnter int, deadline time.Time, clk func() time.Time, sc *lpScratch) Status {
	mRows := len(tab)
	maxIter := 200*(mRows+totalCols) + 2000
	blandAfter := 20*(mRows+totalCols) + 500
	col, ub, flipped := sc.col, sc.ub, sc.flipped
	for iter := 0; iter < maxIter; iter++ {
		if !deadline.IsZero() && iter%deadlineCheckEvery == 0 && clk().After(deadline) {
			return statusDeadline
		}
		// Entering column, among the first nEnter: phase 2 leaves out the
		// artificials, which it also bars with cost +Inf.
		enter := -1
		if iter < blandAfter {
			best := -tolCost
			for c, v := range cost[:nEnter] {
				if v < best {
					best = v
					enter = c
				}
			}
		} else {
			for c, v := range cost[:nEnter] {
				if v < -tolCost {
					enter = c
					break
				}
			}
		}
		if enter < 0 {
			return Optimal
		}
		// Ratio test, gathering the entering column for the pivot on the way:
		// the one strided pass over the tableau per iteration.
		leave, toBound := -1, false
		bestRatio := math.Inf(1)
		for i := 0; i < mRows; i++ {
			a := tab[i][enter]
			col[i] = a
			var r float64
			switch {
			case a > tolPivot:
				r = tab[i][totalCols] / a
			case a < -tolPivot && basis[i] >= 0 && !math.IsInf(ub[basis[i]], 1):
				r = (ub[basis[i]] - tab[i][totalCols]) / -a
			default:
				continue
			}
			if r < bestRatio-tolFeas || (r < bestRatio+tolFeas && (leave < 0 || basis[i] < basis[leave])) {
				bestRatio = r
				leave, toBound = i, a < 0
			}
		}
		if u := ub[enter]; u < bestRatio+tolFeas {
			// Bound flip: complement the entering column.
			for i, a := range col {
				if a != 0 {
					tab[i][totalCols] -= a * u
					tab[i][enter] = -a
				}
			}
			cost[totalCols] -= cost[enter] * u
			cost[enter] = -cost[enter]
			flipped[enter] = !flipped[enter]
			continue
		}
		if leave < 0 {
			return Unbounded
		}
		if toBound {
			// Complement the leaving variable in its own row, the one row
			// where its column is non-zero: x_b = u − x_b' there. The row is
			// left un-negated (its rhs u − b negated to b − u, its basic entry
			// −1); the pivot on the negative entry scales it back, to the
			// same bits as negating first.
			b, pr := basis[leave], tab[leave]
			pr[b], pr[totalCols] = -1, -(ub[b] - pr[totalCols])
			flipped[b] = !flipped[b]
		}
		nz := pivot(tab, basis, leave, enter, sc)
		// Update the cost row where the pivot row is non-zero.
		if ce := cost[enter]; ce != 0 {
			pr := tab[leave]
			for _, k := range nz {
				cost[k] -= ce * pr[k]
			}
			cost[enter] = 0
		}
	}
	// Iteration limit: treat as optimal-so-far; callers tolerate slight
	// suboptimality (time-budgeted scheduling).
	return Optimal
}

// pivot performs a tableau pivot on (row, col) and returns the columns it
// eliminated over (valid until the next pivot on sc): those where the
// scaled pivot row is non-zero, and the right-hand side. The caller has
// gathered column col of the tableau into sc.col. The tableaux of
// placement models are a few percent dense, so the elimination visits
// only the rows whose pivot-column entry is non-zero and, in those, only
// the returned columns. Everywhere else a full sweep would subtract a
// zero, which changes nothing but the sign of a -0 cell; the right-hand
// side is always swept because there that sign reaches the solution (a
// basic variable at zero over a -0 lower bound), inside the tableau
// nothing reads it.
func pivot(tab [][]float64, basis []int, row, col int, sc *lpScratch) []int {
	pr := tab[row]
	inv := 1 / sc.col[row]
	rhs := len(pr) - 1
	nz := grow(sc.nz, len(pr))[:0]
	for k, v := range pr[:rhs] {
		v *= inv
		pr[k] = v
		if v != 0 {
			nz = append(nz, k)
		}
	}
	pr[rhs] *= inv
	nz = append(nz, rhs)
	sc.nz = nz
	pr[col] = 1 // exact
	for i, f := range sc.col {
		if i == row || f == 0 {
			continue
		}
		ri := tab[i]
		for _, k := range nz {
			ri[k] -= f * pr[k]
		}
		ri[col] = 0 // exact
	}
	basis[row] = col
	return nz
}
