package core

import (
	"medea/internal/journal"
	"medea/internal/lra"
	"medea/internal/metrics"
)

// The circuit breaker guards the scheduling pipeline against a
// misbehaving configured algorithm (typically the ILP). It picks the
// algorithm of every cycle with work, whose batch holds its repairs too.
// Consecutive failed cycles — panics, solver-budget exhaustion with no
// incumbent, invalid models, or commit-time validation rejections — trip
// the breaker, which steps down a degradation ladder of cheaper algorithms
// (configured → Medea-TP → Medea-NC, the §5.3 heuristics). After a
// cooldown the breaker half-opens and probes the configured algorithm
// again; a clean probe restores it, a failed probe re-opens one ladder
// level deeper. This is the standing counterpart of the paper's
// time-budgeted ILP fallback (§7.3): degradation is not just per-solve
// but per-pipeline, and self-healing.

type breakerState int

const (
	bkClosed breakerState = iota
	bkOpen
	bkHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case bkClosed:
		return "closed"
	case bkOpen:
		return "open"
	default:
		return "half-open"
	}
}

type breaker struct {
	ladder    []lra.Algorithm
	threshold int // consecutive failures that trip the breaker
	cooldown  int // open cycles on a level before a half-open probe

	state    breakerState
	level    int // active ladder level while open (0 = configured)
	failures int // consecutive failures in the current state
	wait     int // open cycles remaining before the next probe

	stats *metrics.PipelineStats
}

// newBreaker builds the ladder under the configured algorithm, skipping
// rungs whose name matches the configured one (running TagPopularity as a
// "degraded" TagPopularity would be a no-op transition).
func newBreaker(alg lra.Algorithm, threshold, cooldown int, stats *metrics.PipelineStats) *breaker {
	ladder := []lra.Algorithm{alg}
	for _, next := range []lra.Algorithm{lra.NewTagPopularity(), lra.NewNodeCandidates()} {
		if next.Name() != alg.Name() {
			ladder = append(ladder, next)
		}
	}
	return &breaker{ladder: ladder, threshold: threshold, cooldown: cooldown, stats: stats}
}

// algorithm selects the algorithm for the coming cycle and advances the
// open→half-open clock. It returns the algorithm and its ladder level
// (0 = configured; a half-open probe runs the configured algorithm, so
// its level is 0).
func (b *breaker) algorithm() (lra.Algorithm, int) {
	if b.state == bkOpen {
		if b.wait > 0 {
			b.wait--
			return b.ladder[b.level], b.level
		}
		b.transition(bkHalfOpen)
	}
	return b.ladder[0], 0
}

// report feeds the outcome of the cycle back into the state machine.
func (b *breaker) report(failed bool) {
	switch b.state {
	case bkClosed:
		if !failed {
			b.failures = 0
			return
		}
		b.failures++
		if b.failures >= b.threshold {
			b.level = b.deeper(0)
			b.wait = b.cooldown
			b.failures = 0
			b.transition(bkOpen)
		}
	case bkHalfOpen:
		if failed {
			// The configured algorithm is still broken: re-open one
			// ladder level deeper than before.
			b.level = b.deeper(b.level)
			b.wait = b.cooldown
			b.transition(bkOpen)
			return
		}
		b.level = 0
		b.failures = 0
		b.transition(bkClosed)
	case bkOpen:
		// A failure of the degraded algorithm itself (it panicked or its
		// placements were rejected): escalate immediately.
		if failed {
			b.level = b.deeper(b.level)
			b.wait = b.cooldown
		}
	}
}

// deeper returns the next ladder level below the given one, clamped to
// the deepest rung.
func (b *breaker) deeper(level int) int {
	if level+1 < len(b.ladder) {
		return level + 1
	}
	return len(b.ladder) - 1
}

// snapshotState captures the breaker position for the journal.
func (b *breaker) snapshotState() *journal.BreakerState {
	return &journal.BreakerState{
		State: b.state.String(), Level: b.level, Failures: b.failures, Wait: b.wait,
	}
}

// restore resumes a journaled breaker position, clamping the level to
// the ladder actually built (the configured algorithm may differ across
// restarts).
func (b *breaker) restore(s *journal.BreakerState) {
	switch s.State {
	case "open":
		b.state = bkOpen
	case "half-open":
		b.state = bkHalfOpen
	default:
		b.state = bkClosed
	}
	b.level = s.Level
	if b.level < 0 {
		b.level = 0
	}
	if b.level >= len(b.ladder) {
		b.level = len(b.ladder) - 1
	}
	b.failures = s.Failures
	b.wait = s.Wait
}

func (b *breaker) transition(to breakerState) {
	b.stats.RecordTransition(b.state.String(), to.String())
	b.state = to
}
