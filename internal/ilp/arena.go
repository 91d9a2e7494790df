package ilp

import "math"

// SolverArena owns every piece of reusable solver memory: the simplex
// scratch (standard-form mapping, row shapes, tableau, cost row, pivot
// buffers, solution extraction), the branch-and-bound bound-vector free
// list and a reusable CSR build area. Threading one arena through
// ilp.Options across solves removes nearly all per-solve allocations —
// consecutive scheduling cycles solve near-identical models, so the grown
// buffers fit immediately.
//
// Determinism contract: an arena is plain grow-only memory, not a
// sync.Pool, so reuse can never reorder or perturb results. Every buffer
// handed out is fully (re)initialised by its consumer before any element
// is read; Poison exists so tests can prove that (fill the arena with
// garbage between solves and demand byte-identical solutions).
//
// Concurrency contract: one arena serves ONE solve at a time, and a solve
// runs on one goroutine. Callers that solve concurrently — the LRA
// scheduler's sub-batches — keep a free list of whole arenas and check
// one out per solve.
type SolverArena struct {
	lp   lpScratch  // the LP relaxation being solved
	pool boundsPool // bound vectors of open branch-and-bound nodes, the root's included
	// prep is the reusable CSR build area for models that were not
	// prepare()d: rebuilt (cheaply, into the same backing arrays) at the
	// start of each solve and read-only for its duration.
	prep prepared
	// rootX keeps the root relaxation's solution for the search's first
	// node while the warm-start LPs reuse lp.x; seen is search.seen.
	rootX []float64
	seen  []bool
}

// NewSolverArena returns an empty arena; buffers grow on first use.
func NewSolverArena() *SolverArena { return &SolverArena{} }

// preparedFor returns the CSR constraint matrix for m, reusing the
// arena's build area when the model was not already prepare()d. The
// result is valid until the arena's next preparedFor call, which is fine:
// one arena serves one solve at a time and the matrix is immutable for
// that solve's duration.
func (a *SolverArena) preparedFor(m *Model) *prepared {
	if m.prep != nil {
		return m.prep
	}
	p := &a.prep
	nTerms := 0
	for i := range m.cons {
		nTerms += len(m.cons[i].terms)
	}
	p.rowStart = growInt(p.rowStart, len(m.cons)+1)
	p.cols = growInt(p.cols, nTerms)
	p.coefs = growF64(p.coefs, nTerms)
	p.conLo = growF64(p.conLo, len(m.cons))
	p.conHi = growF64(p.conHi, len(m.cons))
	at := 0
	for i := range m.cons {
		c := &m.cons[i]
		p.rowStart[i] = at
		for _, t := range c.terms {
			p.cols[at] = int(t.Var)
			p.coefs[at] = t.Coeff
			at++
		}
		p.conLo[i], p.conHi[i] = c.lo, c.hi
	}
	p.rowStart[len(m.cons)] = at
	return p
}

// Poison overwrites every byte of reusable arena memory with garbage
// (NaN / minimum ints). It is a test hook: a solve after Poison must
// still produce byte-identical results, proving no stale value survives
// into a solution. Calling it between solves in production would be
// harmless but pointless.
func (a *SolverArena) Poison() {
	poisonF64(a.prep.coefs[:cap(a.prep.coefs)])
	poisonF64(a.prep.conLo[:cap(a.prep.conLo)])
	poisonF64(a.prep.conHi[:cap(a.prep.conHi)])
	poisonInt(a.prep.rowStart[:cap(a.prep.rowStart)])
	poisonInt(a.prep.cols[:cap(a.prep.cols)])
	poisonF64(a.rootX[:cap(a.rootX)])
	poisonBool(a.seen[:cap(a.seen)])
	a.lp.poison()
	a.pool.poison()
}

// lpScratch holds the reusable buffers of one LP relaxation solve: the
// standard-form mapping (svars, colOf, fixed, ubCol/ubWide), the shape of
// every tableau row (rowSrc, rowFlip, rowRel, rowB), the tableau with its
// basis and cost row, the pivot's gathered column and non-zero index list
// (col, nz) and the extracted solution (stdVal, x). All buffers are
// grow-only; every element read during a solve is written earlier in that
// same solve (poison garbage-fills each one and the poisoned-arena tests
// enforce this), so nothing from a previous — possibly unrelated — model
// can leak into a result.
type lpScratch struct {
	svars   []stdVar
	colOf   []int
	fixed   []float64
	ubCol   []int     // std columns with a finite range width...
	ubWide  []float64 // ...and the width itself (parallel arrays)
	rowSrc  []int     // per tableau row: its constraint, or -1-i for ubCol[i]'s bound row
	rowFlip []bool    // the row was negated to make its right-hand side non-negative
	rowRel  []int8    // -1: <=, 0: ==, +1: >= (after the flip)
	rowB    []float64
	tabF    []float64   // flat tableau backing, stride totalCols+1
	tab     [][]float64 // row headers into tabF
	basis   []int
	cost    []float64
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
	poisonF64(sc.ubWide[:cap(sc.ubWide)])
	poisonF64(sc.rowB[:cap(sc.rowB)])
	poisonF64(sc.tabF[:cap(sc.tabF)])
	poisonF64(sc.cost[:cap(sc.cost)])
	poisonF64(sc.col[:cap(sc.col)])
	poisonF64(sc.stdVal[:cap(sc.stdVal)])
	poisonF64(sc.x[:cap(sc.x)])
	poisonF64(sc.wlo[:cap(sc.wlo)])
	poisonF64(sc.whi[:cap(sc.whi)])
	poisonInt(sc.colOf[:cap(sc.colOf)])
	poisonInt(sc.ubCol[:cap(sc.ubCol)])
	poisonInt(sc.rowSrc[:cap(sc.rowSrc)])
	poisonInt(sc.basis[:cap(sc.basis)])
	poisonInt(sc.nz[:cap(sc.nz)])
	poisonBool(sc.rowFlip[:cap(sc.rowFlip)])
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

// growF64 returns a slice of length n, reusing buf's backing array when
// it is large enough. Contents are unspecified: callers fully overwrite
// (or explicitly clear) before reading.
func growF64(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n, n+n/2+16)
}

// growInt is growF64 for int slices.
func growInt(buf []int, n int) []int {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int, n, n+n/2+16)
}

func clearF64(s []float64) {
	for i := range s {
		s[i] = 0
	}
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
// flags kept here (a row flipped, a variable already recorded).
func poisonBool(s []bool) {
	for i := range s {
		s[i] = true
	}
}
