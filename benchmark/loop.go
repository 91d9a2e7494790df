package main

import (
	"fmt"
	"time"

	"medea/internal/core"
)

// vclock is the virtual clock every workload schedules on: it moves only
// when the driver advances it, so no placement decision reads wall time.
type vclock struct{ t time.Time }

func newClock() *vclock                   { return &vclock{t: time.Unix(1_500_000_000, 0).UTC()} }
func (c *vclock) now() time.Time          { return c.t }
func (c *vclock) advance(d time.Duration) { c.t = c.t.Add(d) }

// target is one workload's system under test, as the closed loop drives
// it: through the layer's public API only.
type target interface {
	// submit hands one LRA to the system.
	submit(s *spec) error
	// step advances virtual time by one scheduling round and runs it.
	step()
	// deployed reports whether the app is deployed with all containers.
	deployed(s *spec) (bool, error)
	remove(s *spec) error
	// cores exposes the scheduler instances for the correctness gate and
	// the probes — never used to drive the workload.
	cores() []*core.Medea
	// mark starts the measured phase: counters restart from zero.
	mark()
	// counts returns the workload's own operation counts since mark; for
	// one seed they must repeat exactly.
	counts() map[string]int
	close()
}

// maxSteps is how many scheduling rounds an LRA may take to deploy
// before it counts as failed.
const maxSteps = 8

// block is a run of consecutive loop iterations: what they deployed,
// how long they took, how much CPU time the host stole meanwhile, and
// how long the reference kernel took just before them (hostspeed.go).
type block struct {
	iters, units int
	elapsed      time.Duration
	deploy       []time.Duration // submit → observed deployed, per LRA
	stolen       time.Duration
	ref          time.Duration
}

// phase holds what the loop measured since the last reset, in blocks of
// blockIters iterations (0 = one open-ended block).
type phase struct {
	attempted, failed, deployed int
	blockIters                  int
	blocks                      []*block
	steal0                      time.Duration // host steal when the open block began
}

// open returns the block the next iteration belongs to.
func (p *phase) open() *block {
	if n := len(p.blocks); n > 0 && (p.blockIters == 0 || p.blocks[n-1].iters < p.blockIters) {
		return p.blocks[n-1]
	}
	p.blocks = append(p.blocks, &block{ref: refKernel()})
	p.steal0 = hostSteal()
	return p.blocks[len(p.blocks)-1]
}

// close ends the last block if it fell short of blockIters iterations.
func (p *phase) close() {
	if n := len(p.blocks); n > 0 && p.blocks[n-1].iters != p.blockIters {
		p.blocks[n-1].stolen = hostSteal() - p.steal0
	}
}

func (p *phase) wall() time.Duration {
	var d time.Duration
	for _, b := range p.blocks {
		d += b.elapsed
	}
	return d
}

func (p *phase) iterations() int {
	n := 0
	for _, b := range p.blocks {
		n += b.iters
	}
	return n
}

// loop is the closed loop every workload runs: one driver goroutine
// that removes the oldest LRAs once the fill target is reached, submits
// the next batch, steps the system until the batch is deployed, and only
// then goes on. Occupancy, and with it the work per round, is stationary.
type loop struct {
	t    target
	rec  *recorder
	fill int // LRAs held deployed in steady state
	live []*spec
	// between runs inside the timed part of an iteration before the batch
	// is submitted (two_sched: the task-only rounds).
	between func()
	// probe runs after an iteration, outside the timers (traced runs).
	probe func()
	ph    phase
	// gate collects correctness failures: an error from a call that must
	// succeed fails the whole run, it is not a metric.
	gate []error
}

func (l *loop) iterate(batch []*spec) {
	blk := l.ph.open()
	start := time.Now()
	for len(l.live) > 0 && len(l.live)+len(batch) > l.fill {
		if err := l.t.remove(l.live[0]); err != nil {
			l.gate = append(l.gate, fmt.Errorf("remove %s: %w", l.live[0].id, err))
		}
		l.live = l.live[1:]
	}
	if l.between != nil {
		l.between()
	}
	type inflight struct {
		s  *spec
		t0 time.Time
	}
	pending := make([]inflight, 0, len(batch))
	for _, s := range batch {
		l.ph.attempted++
		t0 := time.Now()
		if err := l.t.submit(s); err != nil {
			l.ph.failed++
			continue
		}
		pending = append(pending, inflight{s, t0})
	}
	done := 0
	for n := 0; n < maxSteps && len(pending) > 0; n++ {
		l.t.step()
		keep := pending[:0]
		for _, p := range pending {
			ok, err := l.t.deployed(p.s)
			if err != nil {
				l.gate = append(l.gate, fmt.Errorf("status %s: %w", p.s.id, err))
			}
			if !ok {
				keep = append(keep, p)
				continue
			}
			blk.deploy = append(blk.deploy, time.Since(p.t0))
			l.live = append(l.live, p.s)
			done++
		}
		pending = keep
	}
	for _, p := range pending {
		l.ph.failed++
		_ = l.t.remove(p.s) // best effort: the app may be pending, rejected or gone
	}
	l.ph.deployed += done
	blk.units += done
	blk.elapsed += time.Since(start)
	if blk.iters++; blk.iters == l.ph.blockIters {
		blk.stolen = hostSteal() - l.ph.steal0
	}
	if l.probe != nil {
		l.probe()
	}
}

// run feeds specs to iterate in the given batch sizes until they are
// used up or the deadline has passed (zero = none), and returns the specs
// it did not consume and whether the deadline cut it short.
func (l *loop) run(specs []*spec, sizes []int, deadline time.Time) ([]*spec, bool) {
	for _, n := range sizes {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return specs, true
		}
		l.iterate(specs[:n])
		specs = specs[n:]
	}
	return specs, false
}
