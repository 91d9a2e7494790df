package server

import (
	"context"
	"time"

	"medea/internal/metrics"
)

// Run is the scheduling loop: a Step every PollEvery until ctx is done.
// Run must not be called concurrently with itself.
func (s *Server) Run(ctx context.Context) {
	t := time.NewTicker(s.cfg.PollEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s.Step()
		}
	}
}

// Step is one scheduling-loop iteration (tests and in-process harnesses
// call it directly): it sweeps the ledger, hands the queue to the core,
// propagates the tightest pending request deadline into the cycle's
// solver budget, offers the core a Tick, settles what the cycle did and
// republishes the backpressure gauges the accept path reads.
func (s *Server) Step() {
	now := s.now()
	s.led.sweep(now)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handOffLocked(now, false)

	// Deadline propagation: the tightest remaining deadline among the
	// entries pending in the core clamps this cycle's solver budget — a
	// batch whose callers give up in 200ms must not sit in a 2s solve.
	base := s.med.SolverBudget()
	budget := base
	if d, ok := s.led.tightestDeadline(); ok {
		// Expired in core: the cheapest possible solve.
		if rem := max(d.Sub(now), time.Millisecond); budget == 0 || rem < budget {
			budget = rem
		}
	}
	s.med.SetSolverBudget(budget)
	stats, ran := s.med.Tick(now)
	s.med.SetSolverBudget(base)
	if ran {
		s.led.each(stats.PlacedIDs, evDeploy)
		s.led.each(stats.RejectedIDs, evReject)
	}
	s.publishGaugesLocked()
}

// handOffLocked hands the queued submissions to the core; must be called
// with s.mu held. The last hand-off, at shutdown, counts what it flushes
// so the operator can see what was journaled rather than finished.
func (s *Server) handOffLocked(now time.Time, last bool) {
	for _, app := range s.led.handOff(last) {
		if err := s.med.SubmitLRA(app, now); err != nil {
			s.led.apply(app.ID, evRefuse, evArg{err: err})
			continue
		}
		if last {
			s.Stats.Add(metrics.DrainFlushed, 1)
		}
	}
}

// publishGaugesLocked refreshes the atomic gauges the lock-free accept
// path reads; must be called with s.mu held.
func (s *Server) publishGaugesLocked() {
	s.corePending.Store(int64(s.med.PendingLRAs() + s.med.PendingRepairs()))
	s.journalLag.Store(int64(s.med.JournalLag()))
}

// Shutdown is the graceful, one-way end of the process (SIGTERM): stop
// admitting new work, flush the submit queue into the (journaled) core,
// give the pending batch one final scheduling cycle if ctx still has
// time, then checkpoint — so everything either finished or is durably
// queued for the next incarnation to recover. The HTTP listener and
// journal remain the caller's to close afterwards. The reversible
// counterpart that keeps serving is the cordon (POST /v1/drain).
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.shuttingDown.CompareAndSwap(false, true) {
		return nil // already shutting down
	}
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handOffLocked(now, true)
	if s.med.PendingLRAs() > 0 && ctx.Err() == nil {
		stats := s.med.RunCycle(now)
		s.led.each(stats.PlacedIDs, evDeploy)
		s.led.each(stats.RejectedIDs, evReject)
		s.cfg.Logf("shutdown cycle: placed %d, requeued %d, rejected %d of %d",
			stats.Placed, stats.Requeued, stats.Rejected, stats.Batch)
	}
	s.publishGaugesLocked()
	return s.med.Checkpoint(s.now())
}
