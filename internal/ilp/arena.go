package ilp

import "math"

// SolverArena owns every piece of reusable solver memory: the simplex
// scratch (standard-form mapping, row shapes, tableau, cost row, pivot
// buffers, solution extraction) and the branch-and-bound bound-vector
// free list. Threading one arena through
// ilp.Options across solves removes nearly all per-solve allocations —
// consecutive scheduling cycles solve near-identical models, so the grown
// buffers fit immediately.
//
// Determinism contract: an arena is plain grow-only memory, not a
// sync.Pool, so reuse can never reorder or perturb results. Every buffer
// handed out is fully (re)initialised by its consumer before any element
// is read; poison exists so tests can prove that (fill the arena with
// garbage between solves and demand byte-identical solutions).
//
// Concurrency contract: one arena serves ONE solve at a time, and a solve
// runs on one goroutine. A caller that may solve concurrently — Medea-ILP,
// whose Places a library caller may run side by side — keeps a free list
// of whole arenas and checks one out per solve.
type SolverArena struct {
	lp   lpScratch  // the LP relaxation being solved
	pool boundsPool // bound vectors of open branch-and-bound nodes, the root's included
	// rootX keeps the root relaxation's solution for the search's first
	// node while the warm-start LPs reuse lp.x.
	rootX []float64
}

// NewSolverArena returns an empty arena; buffers grow on first use.
func NewSolverArena() *SolverArena { return &SolverArena{} }

// poison overwrites every byte of reusable arena memory with garbage
// (NaN / minimum ints). It is a test hook: a solve after poison must
// still produce byte-identical results, proving no stale value survives
// into a solution. Calling it between solves in production would be
// harmless but pointless.
func (a *SolverArena) poison() {
	poisonF64(a.rootX[:cap(a.rootX)])
	a.lp.poison()
	a.pool.poison()
}

// lpScratch holds the reusable buffers of one LP relaxation solve: the
// standard-form mapping (svars, colOf, fixed), the shape of every tableau
// row (rowSrc, rowFlip, rowRel, rowB), the tableau with its basis, cost
// row and per-column upper bounds and complement flags (ub, flipped), the
// pivot's gathered column and non-zero index list (col, nz) and the
// extracted solution (stdVal, x). All buffers are grow-only; every
// element read during a solve is written earlier in that same solve
// (poison garbage-fills each one and the poisoned-arena tests enforce
// this), so nothing from a previous — possibly unrelated — model can leak
// into a result.
type lpScratch struct {
	svars   []stdVar
	colOf   []int
	fixed   []float64
	rowSrc  []int  // per tableau row: its constraint
	rowFlip []bool // the row was negated to make its right-hand side non-negative
	rowRel  []int8 // -1: <=, 0: ==, +1: >= (after the flip)
	rowB    []float64
	tabF    []float64   // flat tableau backing, stride totalCols+1
	tab     [][]float64 // row headers into tabF
	basis   []int
	cost    []float64
	ub      []float64 // per tableau column: upper bound, +Inf for none
	flipped []bool    // per tableau column: complemented, x' = ub − x
	col     []float64 // the pivot column, gathered for one pivot
	nz      []int     // columns where the scaled pivot row is non-zero
	stdVal  []float64
	x       []float64 // extracted model-space solution (lpResult.x)
	// wlo and whi are the bound vectors of the warm-start candidate being
	// evaluated (warmIncumbent).
	wlo, whi []float64
	// lps counts the LPs solved through this scratch; tests assert on it.
	lps int
}

func (sc *lpScratch) poison() {
	poisonF64(sc.fixed[:cap(sc.fixed)])
	poisonF64(sc.rowB[:cap(sc.rowB)])
	poisonF64(sc.tabF[:cap(sc.tabF)])
	poisonF64(sc.cost[:cap(sc.cost)])
	poisonF64(sc.ub[:cap(sc.ub)])
	poisonF64(sc.col[:cap(sc.col)])
	poisonF64(sc.stdVal[:cap(sc.stdVal)])
	poisonF64(sc.x[:cap(sc.x)])
	poisonF64(sc.wlo[:cap(sc.wlo)])
	poisonF64(sc.whi[:cap(sc.whi)])
	poisonInt(sc.colOf[:cap(sc.colOf)])
	poisonInt(sc.rowSrc[:cap(sc.rowSrc)])
	poisonInt(sc.basis[:cap(sc.basis)])
	poisonInt(sc.nz[:cap(sc.nz)])
	poisonBool(sc.rowFlip[:cap(sc.rowFlip)])
	poisonBool(sc.flipped[:cap(sc.flipped)])
	sv := sc.svars[:cap(sc.svars)]
	for i := range sv {
		sv[i] = stdVar{model: math.MinInt, shift: math.NaN(), sign: math.NaN()}
	}
	rel := sc.rowRel[:cap(sc.rowRel)]
	for i := range rel {
		rel[i] = math.MinInt8
	}
	tab := sc.tab[:cap(sc.tab)]
	for i := range tab {
		tab[i] = nil
	}
}

// boundsPool is the free list feeding branch-and-bound node bound
// vectors (bbNode.lo/hi). All vectors of one solve share the model's
// variable count; reset pins the pool to it and drops buffers from any
// previous, differently-sized model. get returns UNINITIALISED memory —
// the only consumer is branch(), which copies the full parent vector
// before mutating one entry.
type boundsPool struct {
	n    int
	free [][]float64
}

func (p *boundsPool) reset(n int) {
	if p.n != n {
		p.free = p.free[:0]
		p.n = n
	}
}

func (p *boundsPool) get() []float64 {
	if len(p.free) > 0 {
		b := p.free[len(p.free)-1]
		p.free = p.free[:len(p.free)-1]
		return b
	}
	return make([]float64, p.n)
}

// cloneOf returns a pooled copy of src (which must have length p.n).
func (p *boundsPool) cloneOf(src []float64) []float64 {
	b := p.get()
	copy(b, src)
	return b
}

// release returns a node's bound vectors to the free list. Wrong-size
// buffers (from a caller-constructed root) are dropped, not recycled.
func (p *boundsPool) release(nd bbNode) {
	if cap(nd.lo) >= p.n {
		p.free = append(p.free, nd.lo[:p.n])
	}
	if cap(nd.hi) >= p.n {
		p.free = append(p.free, nd.hi[:p.n])
	}
}

func (p *boundsPool) poison() {
	for _, b := range p.free {
		poisonF64(b[:cap(b)])
	}
}

// grow returns a slice of length n, reusing buf's backing array when it
// is large enough. Contents are unspecified: callers fully overwrite (or
// explicitly clear) before reading.
func grow[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]T, n, n+n/2+16)
}

func poisonF64(s []float64) {
	for i := range s {
		s[i] = math.NaN()
	}
}

func poisonInt(s []int) {
	for i := range s {
		s[i] = math.MinInt
	}
}

// poisonBool sets every flag: a stale true is the harmful value for the
// flags kept here (a row flipped, a column complemented).
func poisonBool(s []bool) {
	for i := range s {
		s[i] = true
	}
}
