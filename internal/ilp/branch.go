package ilp

import (
	"math"
	"time"
)

// Options controls branch-and-bound.
type Options struct {
	// Deadline stops the search when reached; the best incumbent (if any)
	// is returned with Status Feasible. Zero means no deadline.
	Deadline time.Time
	// MaxNodes bounds the number of explored nodes (0 = 200000).
	MaxNodes int
	// RelGap widens the tie window of bound pruning; it never stops the
	// search early. A node is cut without solving its LP only when its
	// bound is worse than the incumbent by more than
	// RelGap·max(1,|incumbent|) (see pruneFloor), so a larger gap prunes
	// less: nodes that merely tie the incumbent, or trail it by float
	// noise of that size, stay in the search. A completed search is
	// therefore exactly optimal for every RelGap in [0, 1), and Optimal
	// means proven, not "within the gap".
	RelGap float64
	// WarmStarts optionally supplies candidate values for the integer
	// variables of known-feasible solutions (e.g. the greedy heuristic's
	// and the previous scheduling cycle's). For each the solver fixes
	// them and solves one LP for the continuous remainder; the best
	// feasible outcome (objective, then lexicographic tie-break) is the
	// initial incumbent — branch-and-bound then only ever improves on it.
	// Empty and infeasible candidates are ignored.
	WarmStarts []map[Var]float64
	// BranchPriority orders branching: the first fractional variable in
	// this list is branched before the default most-fractional rule kicks
	// in. Callers replay the previous cycle's recorded branch order
	// (Solution.Branched) so near-identical models re-walk yesterday's
	// tree first. Unknown or non-integer entries are ignored.
	BranchPriority []Var
	// Clock is the time source for deadline enforcement (nil = time.Now).
	// Deterministic harnesses inject a virtual clock, which freezes the
	// budget for the duration of a solve and so removes the wall clock
	// from solver outcomes entirely.
	Clock func() time.Time
	// Arena supplies the reusable solver memory (see SolverArena). Nil
	// makes the solve allocate a private arena: within-solve reuse still
	// applies, but nothing carries to the next solve. One arena must not
	// serve two concurrent solves.
	Arena *SolverArena
	// Mode selects the solving path: ModeExact (zero value) is
	// branch-and-bound, ModeApprox the LP-relaxation + randomized-rounding
	// fast path, ModeAuto picks per instance (see effectiveMode).
	Mode Mode
}

// now reads the configured clock, defaulting to the wall clock.
func (o Options) now() time.Time {
	if o.Clock != nil {
		return o.Clock()
	}
	return time.Now()
}

// tolObj is the bound-pruning guard: a node is cut on the incumbent only
// when its bound is worse by more than this margin, so float noise in LP
// bounds cannot cut a subtree holding a solution that ties the optimum.
const tolObj = 1e-9

// maxBranchedRecord caps Solution.Branched: the next cycle only replays
// the top of the tree, so recording deep branches buys nothing.
const maxBranchedRecord = 32

// defaultMaxNodes is the node budget applied when Options.MaxNodes is 0.
const defaultMaxNodes = 200000

// frontierTarget is the number of open subproblems at which the dive
// hands over to per-subtree search (see solveExact).
const frontierTarget = 32

type bbNode struct {
	lo, hi []float64
	bound  float64 // parent LP objective (in model sense)
}

// better reports whether objective a improves on b under the sense.
func (m *Model) better(a, b float64) bool {
	if m.sense == Maximize {
		return a > b
	}
	return a < b
}

// worst returns the sentinel objective no feasible solution can have.
func (m *Model) worst() float64 {
	if m.sense == Maximize {
		return math.Inf(-1)
	}
	return math.Inf(1)
}

// rootBoundsInto writes the model's variable bounds, integer bounds
// tightened to the nearest integers, into caller-supplied vectors of the
// model's variable count — every element is written — and reports
// whether any integer variable exists.
func (m *Model) rootBoundsInto(lo, hi []float64) (hasInt bool) {
	for j, v := range m.vars {
		lo[j], hi[j] = v.lo, v.hi
		if v.integer {
			hasInt = true
			if !math.IsInf(lo[j], -1) {
				lo[j] = math.Ceil(lo[j] - tolInt)
			}
			if !math.IsInf(hi[j], 1) {
				hi[j] = math.Floor(hi[j] + tolInt)
			}
		}
	}
	return hasInt
}

// preparedFor resolves the CSR constraint matrix for one solve: a model
// already prepare()d (or solving without a caller arena, where the model
// itself is the natural cache) keeps the per-model copy; with a caller
// arena the matrix is rebuilt into the arena's reused buffers, so solving
// a fresh structurally-identical model every cycle costs no allocation.
func (m *Model) preparedFor(opts Options, arena *SolverArena) *prepared {
	if opts.Arena == nil {
		return m.prepare()
	}
	return arena.preparedFor(m)
}

// warmIncumbent evaluates every Options.WarmStarts candidate: each fixes
// its supplied integer values, solves one LP for the remainder, and the
// best feasible outcome (objective first, then lexicographic assignment —
// a deterministic tie-break) becomes the initial incumbent. ok is false
// when no candidate is feasible.
func (m *Model) warmIncumbent(opts Options, p *prepared, lo, hi []float64, sc *lpScratch) (obj float64, x []float64, ok bool) {
	n := len(m.vars)
	tryOne := func(ws map[Var]float64) (float64, []float64, bool) {
		if len(ws) == 0 {
			return 0, nil, false
		}
		wlo, whi := growF64(sc.wlo, n), growF64(sc.whi, n)
		sc.wlo, sc.whi = wlo, whi
		copy(wlo, lo)
		copy(whi, hi)
		for v, val := range ws {
			j := int(v)
			if j < 0 || j >= n {
				return 0, nil, false
			}
			if val < wlo[j]-tolFeas || val > whi[j]+tolFeas {
				return 0, nil, false
			}
			wlo[j], whi[j] = val, val
		}
		if res := solveLP(m, p, wlo, whi, opts.Deadline, opts.Clock, sc); res.status == Optimal && m.integral(res.x) {
			return res.obj, m.snap(res.x), true
		}
		return 0, nil, false
	}
	consider := func(o float64, cx []float64, k bool) {
		if !k {
			return
		}
		if !ok || m.better(o, obj) || (o == obj && lexLess(cx, x)) {
			obj, x, ok = o, cx, true
		}
	}
	for _, ws := range opts.WarmStarts {
		consider(tryOne(ws))
	}
	return obj, x, ok
}

// branchVariable picks the first fractional variable of the caller's
// priority order, falling back to the most fractional integer variable of
// x; -1 when x is integer feasible.
func (m *Model) branchVariable(x []float64, prio []Var) int {
	for _, v := range prio {
		j := int(v)
		if j < 0 || j >= len(m.vars) || !m.vars[j].integer {
			continue
		}
		f := x[j] - math.Floor(x[j])
		if math.Min(f, 1-f) > tolInt {
			return j
		}
	}
	branchVar, frac := -1, 0.0
	for j, v := range m.vars {
		if !v.integer {
			continue
		}
		f := x[j] - math.Floor(x[j])
		d := math.Min(f, 1-f)
		if d > tolInt && d > frac {
			frac = d
			branchVar = j
		}
	}
	return branchVar
}

// branch splits nd on variable j at value v into the two child
// subproblems, ordered so the more promising child (closer rounding) is
// popped first off a LIFO stack. Child bound vectors come from the pool:
// full parent copies, so pooled garbage can never reach a child.
func branch(pl *boundsPool, nd bbNode, j int, v, bound float64) (first, second bbNode) {
	fl, ce := math.Floor(v), math.Ceil(v)
	down := bbNode{lo: pl.cloneOf(nd.lo), hi: pl.cloneOf(nd.hi), bound: bound}
	down.hi[j] = math.Min(down.hi[j], fl)
	up := bbNode{lo: pl.cloneOf(nd.lo), hi: pl.cloneOf(nd.hi), bound: bound}
	up.lo[j] = math.Max(up.lo[j], ce)
	if v-fl >= 0.5 {
		return down, up
	}
	return up, down
}

// pruneFloor maps an incumbent objective v to the cut line of bound
// pruning: a node whose bound is strictly worse than pruneFloor(v) holds
// no solution that ties v, let alone beats it, and is dropped without
// solving its LP. The line lies RelGap·max(1,|v|) + tolObj on the worse
// side of v and, for RelGap < 1, only ever tightens as v improves.
func (m *Model) pruneFloor(relGap, v float64) float64 {
	w := tolObj
	if relGap > 0 {
		w += relGap * math.Max(1, math.Abs(v))
	}
	if m.sense == Minimize {
		return v + w
	}
	return v - w
}

// Solve optimises the model. Continuous models solve with one simplex
// call; integer models run branch-and-bound (see solveExact) or, when
// Options.Mode selects it, the approximate relaxation+rounding path (see
// solveApprox). A model that fails Check returns Invalid without solving.
func (m *Model) Solve(opts Options) *Solution {
	if m.effectiveMode(opts) == ModeApprox {
		sol := m.solveApprox(opts)
		// A strict ModeApprox keeps whatever rounding produced; ModeAuto
		// falls back to the exact path when rounding found nothing and
		// budget remains.
		if sol.Status != NoSolution || sol.DeadlineHit || opts.Mode == ModeApprox {
			return sol
		}
	}
	return m.solveExact(opts)
}

// solveExact is depth-first branch-and-bound on one goroutine, a pure
// function of (model, options) up to the deadline:
//
//  1. Root LP and warm starts seed the incumbent.
//  2. The dive: depth-first from the root, promising child first, until
//     the tree is exhausted — most models end here — or frontierTarget
//     subproblems are open. Integral leaves found on the way down improve
//     the incumbent, so a deadline that fires this early still returns one.
//  3. Each open subproblem is then searched to exhaustion on its own,
//     deepest first (the order the dive would have continued in, so a
//     deadline loses the least promising work), with an equal share of
//     the remaining node budget and the dive's incumbent as its own
//     starting point. What a subtree can contribute to the optimum is
//     therefore the same whatever its siblings found before it; across
//     subtrees the incumbent only cuts through pruneFloor, which keeps
//     ties.
//
// The incumbent orders solutions by objective, then lexicographically by
// assignment, so which of several equal optima is returned does not
// depend on when each was found. It does depend on the hand-over point
// and the subtree order: every golden file and benchmark fingerprint
// holds the optimum they select (TestSolveGolden pins it), so changing
// either means regenerating those.
func (m *Model) solveExact(opts Options) *Solution {
	if err := m.Check(); err != nil {
		return &Solution{Status: Invalid}
	}
	arena := opts.Arena
	if arena == nil {
		arena = NewSolverArena()
	}
	p := m.preparedFor(opts, arena)
	maxNodes := opts.MaxNodes
	if maxNodes == 0 {
		maxNodes = defaultMaxNodes
	}
	n := len(m.vars)
	arena.pool.reset(n)
	rootNode := bbNode{lo: arena.pool.get(), hi: arena.pool.get()}
	lo, hi := rootNode.lo, rootNode.hi
	hasInt := m.rootBoundsInto(lo, hi)

	root := solveLP(m, p, lo, hi, opts.Deadline, opts.Clock, &arena.lp)
	if root.status != Optimal || !hasInt || m.integral(root.x) {
		arena.pool.release(rootNode)
		switch {
		case root.status == statusDeadline:
			return &Solution{Status: NoSolution, Nodes: 1, DeadlineHit: true}
		case root.status != Optimal:
			return &Solution{Status: root.status, Nodes: 1}
		}
		return &Solution{Status: Optimal, Objective: root.obj, values: m.snap(root.x), Nodes: 1}
	}
	// The warm-start LPs below reuse the scratch root.x points into.
	arena.rootX = append(arena.rootX[:0], root.x...)
	root.x = arena.rootX
	rootNode.bound = root.obj

	if cap(arena.seen) < n {
		arena.seen = make([]bool, n)
	}
	clear(arena.seen[:n])
	s := &search{m: m, opts: opts, p: p, arena: arena, obj: m.worst(), nodes: 1, seen: arena.seen[:n]}
	warmUsed := false
	if obj, x, ok := m.warmIncumbent(opts, p, lo, hi, &arena.lp); ok {
		s.obj, s.x, warmUsed = obj, x, true
	}
	open := s.explore([]bbNode{rootNode}, &root, s.obj, maxNodes-1, true)
	if left := maxNodes - s.nodes; len(open) > 0 && !s.cut {
		if left < len(open) {
			s.cut = true // not even one node per subtree
		} else {
			inc := s.obj
			for i := len(open) - 1; i >= 0; i-- {
				s.explore([]bbNode{open[i]}, nil, inc, left/len(open), false)
			}
		}
	}

	sol := &Solution{Nodes: s.nodes, Branched: s.branched}
	switch {
	case s.x == nil && s.cut:
		sol.Status, sol.DeadlineHit = NoSolution, true
	case s.x == nil:
		sol.Status = Infeasible
	default:
		sol.Status, sol.DeadlineHit = Optimal, s.cut
		if s.cut {
			sol.Status = Feasible
		}
		sol.Objective, sol.values, sol.WarmUsed = s.obj, s.x, warmUsed
	}
	return sol
}

// search is the state of one branch-and-bound solve.
type search struct {
	m     *Model
	opts  Options
	p     *prepared
	arena *SolverArena
	// obj and x are the incumbent: the best integer-feasible solution
	// found so far (x nil and obj the worst() sentinel while there is
	// none), ties going to the lexicographically smaller assignment.
	obj float64
	x   []float64
	// nodes counts the LP relaxations solved; cut reports that the node
	// budget or the deadline stopped the search with work left.
	nodes int
	cut   bool
	// branched is the dive's branch order (Solution.Branched).
	branched []Var
	seen     []bool
}

// explore searches stack depth-first within budget nodes and returns the
// subproblems it left open: none unless it was cut or, when dive is set,
// stopped at frontierTarget. inc is the objective an LP result must beat
// to be kept. It starts as the caller's and follows this call's own
// finds, not the incumbent's: a solution of equal objective found
// elsewhere must not hide this one from the lexicographic tie-break.
func (s *search) explore(stack []bbNode, root *lpResult, inc float64, budget int, dive bool) []bbNode {
	m, opts, pool := s.m, s.opts, &s.arena.pool
	for used := 0; len(stack) > 0 && !(dive && len(stack) >= frontierTarget); {
		if used >= budget || (!opts.Deadline.IsZero() && used%16 == 0 && opts.now().After(opts.Deadline)) {
			s.cut = true
			break
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if m.better(m.pruneFloor(opts.RelGap, s.obj), nd.bound) {
			pool.release(nd)
			continue
		}
		used++
		s.nodes++
		if !m.better(nd.bound, inc) {
			// No LP below this node can beat what this call already holds:
			// count the node as searched and spare its LP.
			pool.release(nd)
			continue
		}
		var res lpResult
		if root != nil {
			res, root = *root, nil
		} else {
			res = solveLP(m, s.p, nd.lo, nd.hi, opts.Deadline, opts.Clock, &s.arena.lp)
		}
		if res.status == statusDeadline {
			s.cut = true
			break
		}
		// Infeasible (or numerically bad) subtree, or one that cannot
		// beat what this call already holds.
		if res.status != Optimal || !m.better(res.obj, inc) {
			pool.release(nd)
			continue
		}
		j := m.branchVariable(res.x, opts.BranchPriority)
		if j < 0 {
			// Integer feasible.
			inc = res.obj
			if x := m.snap(res.x); m.better(inc, s.obj) || (inc == s.obj && lexLess(x, s.x)) {
				s.obj, s.x = inc, x
			}
			pool.release(nd)
			continue
		}
		if dive && !s.seen[j] && len(s.branched) < maxBranchedRecord {
			s.seen[j] = true
			s.branched = append(s.branched, Var(j))
		}
		first, second := branch(pool, nd, j, res.x[j], res.obj)
		pool.release(nd)
		// LIFO: push the less promising child first so the more promising
		// (closer rounding) is explored next.
		stack = append(stack, second, first)
	}
	return stack
}

// integral reports whether all integer variables are integral within tol.
func (m *Model) integral(x []float64) bool {
	for j, v := range m.vars {
		if !v.integer {
			continue
		}
		f := x[j] - math.Floor(x[j])
		if math.Min(f, 1-f) > tolInt {
			return false
		}
	}
	return true
}

// snap rounds integer variables to exact integers.
func (m *Model) snap(x []float64) []float64 {
	out := clone(x)
	for j, v := range m.vars {
		if v.integer {
			out[j] = math.Round(out[j])
		}
	}
	return out
}

func clone(x []float64) []float64 { return append([]float64(nil), x...) }

// lexLess reports whether a precedes b lexicographically; it is the
// deterministic tie-break between equal-objective solutions.
func lexLess(a, b []float64) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// CheckFeasible verifies that an assignment satisfies all bounds,
// integrality and constraints within tolerance; used by tests and by
// schedulers validating externally constructed solutions.
func (m *Model) CheckFeasible(x []float64) bool {
	if len(x) != len(m.vars) {
		return false
	}
	for j, v := range m.vars {
		if x[j] < v.lo-tolFeas || x[j] > v.hi+tolFeas {
			return false
		}
		if v.integer {
			f := x[j] - math.Floor(x[j])
			if math.Min(f, 1-f) > tolInt {
				return false
			}
		}
	}
	for _, c := range m.cons {
		s := 0.0
		for _, t := range c.terms {
			if int(t.Var) < 0 || int(t.Var) >= len(x) {
				return false // malformed model (see Model.Check)
			}
			s += t.Coeff * x[t.Var]
		}
		if s < c.lo-tolFeas || s > c.hi+tolFeas {
			return false
		}
	}
	return true
}
