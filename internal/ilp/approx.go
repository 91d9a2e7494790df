package ilp

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
)

// Mode selects the solving path of Model.Solve. The scheduler always
// solves exact; ModeApprox stays for the benchmark's solver probe and
// the package's own tests.
type Mode int

const (
	// ModeExact (zero value) runs branch-and-bound.
	ModeExact Mode = iota
	// ModeApprox runs LP relaxation + randomized rounding.
	ModeApprox
)

// Rounding-dive limits.
const (
	approxAttempts    = 4 // rounding passes (first = nearest, rest randomized)
	approxBacktracks  = 8 // repair sweeps per attempt
	approxRepairWidth = 4 // fixes undone per repair sweep
)

// fingerprint hashes the model structure (sense, variables, constraint
// matrix). It seeds the approximate path's rounding RNG, making the dive
// a deterministic function of the model — identical across processes and
// repeated solves.
func (m *Model) fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	wf := func(f float64) { w64(math.Float64bits(f)) }
	w64(uint64(m.sense))
	w64(uint64(len(m.vars)))
	w64(uint64(len(m.rows.lo)))
	for i := range m.vars {
		v := &m.vars[i]
		wf(v.lo)
		wf(v.hi)
		wf(v.obj)
		if v.integer {
			w64(1)
		} else {
			w64(0)
		}
	}
	r := &m.rows
	for i := range r.lo {
		wf(r.lo[i])
		wf(r.hi[i])
		w64(uint64(r.start[i+1] - r.start[i]))
		for k := r.start[i]; k < r.start[i+1]; k++ {
			w64(uint64(r.cols[k]))
			wf(r.coefs[k])
		}
	}
	return h.Sum64()
}

// solveApprox is the fast approximate path: solve the LP relaxation once,
// then drive the fractional integer variables to integrality by randomized
// rounding — fix one variable per step (rounding up with probability equal
// to its fractional part), re-solve the LP, flip the rounding if it went
// infeasible, and when both directions die run a repair sweep that un-fixes
// the most recent decisions and re-dives. The final LP of a successful dive
// has every integer variable fixed, so the returned solution is feasible by
// construction (CvxCluster-style relaxation+rounding; PAPERS.md).
//
// Determinism: the RNG is seeded from the model fingerprint and consumed on
// a single goroutine, so the dive — and therefore the solution — is a pure
// function of (model, options). A supplied warm start competes with the
// rounded candidates; the best feasible outcome wins. The root LP objective
// bounds the optimality gap: callers get Optimal back when rounding met the
// bound, Feasible otherwise.
func (m *Model) solveApprox(opts Options) *Solution {
	if err := m.Check(); err != nil {
		return &Solution{Status: Invalid}
	}
	arena := opts.Arena
	if arena == nil {
		arena = NewSolverArena()
	}
	arena.pool.reset(len(m.vars))
	bounds := bbNode{lo: arena.pool.get(), hi: arena.pool.get()}
	defer arena.pool.release(bounds)
	lo, hi := bounds.lo, bounds.hi
	hasInt := m.rootBoundsInto(lo, hi)

	root := solveLP(m, lo, hi, opts.Deadline, opts.Clock, &arena.lp)
	if root.status == statusDeadline {
		return &Solution{Status: NoSolution, Nodes: 1, DeadlineHit: true}
	}
	if root.status != Optimal {
		// Infeasible/Unbounded relaxations are exact proofs, not guesses.
		return &Solution{Status: root.status, Nodes: 1}
	}
	if !hasInt || m.integral(root.x) {
		return &Solution{Status: Optimal, Objective: root.obj, values: m.snap(root.x), Nodes: 1}
	}
	rootObj := root.obj
	rootX := clone(root.x)

	best := m.worst()
	var bestX []float64
	warmUsed := false
	if obj, x, ok := m.warmIncumbent(opts, lo, hi, &arena.lp); ok {
		best, bestX, warmUsed = obj, x, true
	}

	rng := rand.New(rand.NewSource(int64(m.fingerprint())))
	nodes := 1
	deadlineHit := false
	wlo, whi := clone(lo), clone(hi)
	xcur := clone(rootX)
	var fixedVars []int

attempts:
	for attempt := 0; attempt < approxAttempts; attempt++ {
		copy(wlo, lo)
		copy(whi, hi)
		copy(xcur, rootX)
		curObj := rootObj
		fixedVars = fixedVars[:0]
		backtracks := approxBacktracks
		for {
			if !opts.Deadline.IsZero() && opts.now().After(opts.Deadline) {
				deadlineHit = true
				break attempts
			}
			j := m.branchVariable(xcur)
			if j < 0 {
				// All integers fixed or naturally integral: xcur is LP-feasible
				// with integral integers — a feasible candidate.
				cand := m.snap(xcur)
				if bestX == nil || m.better(curObj, best) || (curObj == best && lexLess(cand, bestX)) {
					best, bestX = curObj, cand
				}
				continue attempts
			}
			f := xcur[j] - math.Floor(xcur[j])
			up := f >= 0.5 // attempt 0: nearest rounding
			if attempt > 0 {
				up = rng.Float64() < f
			}
			v1, v2 := math.Floor(xcur[j]), math.Ceil(xcur[j])
			if up {
				v1, v2 = v2, v1
			}
			wlo[j], whi[j] = v1, v1
			res := solveLP(m, wlo, whi, opts.Deadline, opts.Clock, &arena.lp)
			nodes++
			if res.status == statusDeadline {
				deadlineHit = true
				break attempts
			}
			if res.status != Optimal {
				// Flip the rounding.
				wlo[j], whi[j] = v2, v2
				res = solveLP(m, wlo, whi, opts.Deadline, opts.Clock, &arena.lp)
				nodes++
				if res.status == statusDeadline {
					deadlineHit = true
					break attempts
				}
			}
			if res.status != Optimal {
				// Both roundings infeasible: repair sweep — un-fix the most
				// recent decisions (they boxed this variable in) and re-dive.
				if backtracks <= 0 || len(fixedVars) == 0 {
					continue attempts
				}
				backtracks--
				undo := approxRepairWidth
				if undo > len(fixedVars) {
					undo = len(fixedVars)
				}
				for i := 0; i < undo; i++ {
					fj := fixedVars[len(fixedVars)-1]
					fixedVars = fixedVars[:len(fixedVars)-1]
					wlo[fj], whi[fj] = lo[fj], hi[fj]
				}
				wlo[j], whi[j] = lo[j], hi[j]
				res = solveLP(m, wlo, whi, opts.Deadline, opts.Clock, &arena.lp)
				nodes++
				if res.status == statusDeadline {
					deadlineHit = true
					break attempts
				}
				if res.status != Optimal {
					continue attempts // relaxation collapsed; give this pass up
				}
				copy(xcur, res.x)
				curObj = res.obj
				continue
			}
			fixedVars = append(fixedVars, j)
			copy(xcur, res.x)
			curObj = res.obj
		}
	}

	if bestX == nil {
		return &Solution{Status: NoSolution, Nodes: nodes, DeadlineHit: deadlineHit, Approximate: true}
	}
	status := Feasible
	// A rounded solution meeting the relaxation bound is proven optimal.
	if math.Abs(rootObj-best) <= tolObj*math.Max(1, math.Abs(best)) {
		status = Optimal
	}
	return &Solution{
		Status:      status,
		Objective:   best,
		values:      bestX,
		Nodes:       nodes,
		DeadlineHit: deadlineHit,
		Approximate: true,
		WarmUsed:    warmUsed,
	}
}

// lexLess reports whether a precedes b lexicographically; it breaks ties
// between equal-objective rounded candidates.
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
