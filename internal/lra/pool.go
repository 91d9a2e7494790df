package lra

import "sync"

// pool is a scheduler's free list of per-Place scratch, the only state
// it keeps between Place calls. Core runs one Place at a time, but the
// Algorithm contract lets a library caller run two on one value at once,
// each on its own cluster, so each Place checks a scratch out (get) and
// back in (put) under the mutex. A scratch holds buffers and no
// information: a Place rewrites every buffer it reads, so which scratch
// serves which Place never perturbs a result (the poisoned-scratch
// differentials prove it).
type pool[T any] struct {
	mu   sync.Mutex
	free []*T
}

// get pops a scratch, making one when the list is empty.
func (p *pool[T]) get() *T {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free = p.free[:n-1]
		return x
	}
	return new(T)
}

// put returns a scratch get handed out.
func (p *pool[T]) put(x *T) {
	p.mu.Lock()
	p.free = append(p.free, x)
	p.mu.Unlock()
}
