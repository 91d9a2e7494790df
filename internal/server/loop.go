package server

import (
	"context"
	"time"

	"medea/internal/core"
)

// Run is the scheduling loop: it wakes every PollEvery, expires and
// drains the submit queue into the core, propagates the tightest queued
// request deadline into the cycle's solver budget, offers the core a
// Tick, and republishes the backpressure gauges the accept path reads.
// It returns when ctx is done. Run must not be called concurrently with
// itself.
func (s *Server) Run(ctx context.Context) {
	t := time.NewTicker(s.cfg.pollEvery())
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.step()
		}
	}
}

// step is one scheduling-loop iteration (exposed to tests via Step).
func (s *Server) step() {
	now := s.now()
	s.sweepReservations(now)
	for _, e := range s.queue.DropExpired(now) {
		s.Stats.AddExpired()
		s.setOutcome(e.app.ID, "expired")
		s.logf("expired queued %s (deadline %s)", e.app.ID, e.deadline.Format(time.RFC3339Nano))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.admitQueueLocked(now, false)

	// Deadline propagation: the tightest remaining deadline among the
	// core's pending apps clamps this cycle's solver budget — a batch
	// whose callers give up in 200ms must not sit in a 2s solve.
	base := s.med.SolverBudget()
	budget := base
	for _, id := range s.med.PendingApps() {
		d, ok := s.deadlines[id]
		if !ok {
			continue
		}
		rem := d.Sub(now)
		if rem < time.Millisecond {
			rem = time.Millisecond // expired in core: cheapest possible solve
		}
		if budget == 0 || rem < budget {
			budget = rem
		}
	}
	s.med.SetSolverBudget(budget)
	_, ran := s.med.Tick(now)
	s.med.SetSolverBudget(base)
	if ran {
		s.pruneDeadlinesLocked()
	}
	s.publishGaugesLocked()
}

// Step runs one loop iteration synchronously (tests and the in-process
// load harness).
func (s *Server) Step() { s.step() }

// admitQueueLocked hands queued submissions to the core; must be called
// with s.mu held. During drain, flushed entries are counted so the
// operator can see what was journaled rather than finished.
func (s *Server) admitQueueLocked(now time.Time, drain bool) {
	for _, e := range s.queue.Drain() {
		if err := s.med.SubmitLRA(e.app, now); err != nil {
			s.Stats.AddSubmitError()
			s.setOutcome(e.app.ID, "failed")
			s.logf("core refused %s: %v", e.app.ID, err)
			continue
		}
		s.registerCoreApp(e.app.ID)
		if !e.deadline.IsZero() {
			s.deadlines[e.app.ID] = e.deadline
		}
		if drain {
			s.Stats.AddDrainFlushed()
		}
	}
}

// pruneDeadlinesLocked drops deadline entries for apps no longer pending
// in the core; must be called with s.mu held.
func (s *Server) pruneDeadlinesLocked() {
	if len(s.deadlines) == 0 {
		return
	}
	pending := make(map[string]bool)
	for _, id := range s.med.PendingApps() {
		pending[id] = true
	}
	for id := range s.deadlines {
		if !pending[id] {
			delete(s.deadlines, id)
		}
	}
}

// publishGaugesLocked refreshes the atomic gauges the lock-free accept
// path reads; must be called with s.mu held.
func (s *Server) publishGaugesLocked() {
	s.corePending.Store(int64(s.med.PendingLRAs() + s.med.PendingRepairs()))
	s.journalLag.Store(int64(s.med.JournalLag()))
	s.refreshCoreAppsLocked()
}

// Drain is the graceful-shutdown path (SIGTERM): stop admitting new
// work, flush the submit queue into the (journaled) core, give the
// pending batch one final scheduling cycle if ctx still has time, then
// checkpoint — so everything either finished or is durably queued for
// the next incarnation to recover. The HTTP listener and journal remain
// the caller's to close afterwards.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil // already draining
	}
	// Close the queue before the final flush: a submit that slipped past
	// the draining gate either pushed before the close (and is flushed
	// into the journaled core below, honoring its 202) or finds the queue
	// closed and gets a clean 503 — an acknowledged submission is never
	// stranded in a queue nothing will read again.
	s.queue.Close()
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.admitQueueLocked(now, true)
	if s.med.PendingLRAs() > 0 && ctx.Err() == nil {
		stats := s.med.RunCycle(now)
		s.logf("drain cycle: placed %d, requeued %d, rejected %d of %d",
			stats.Placed, stats.Requeued, stats.Rejected, stats.Batch)
	}
	s.publishGaugesLocked()
	return s.med.Checkpoint(s.now())
}

// Draining reports whether the server has stopped admitting.
func (s *Server) Draining() bool { return s.draining.Load() }

// Core exposes the underlying scheduler for in-process harnesses and
// tests; callers must not use it concurrently with a running loop.
func (s *Server) Core() *core.Medea { return s.med }
