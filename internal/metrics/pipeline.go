package metrics

import (
	"fmt"
	"sync"
)

// BreakerEvent records one circuit-breaker transition, for diagnostics
// and the byzantine-algorithm tests.
type BreakerEvent struct {
	// Cycle is the scheduling cycle (1-based) the transition happened in.
	Cycle int
	// From and To are breaker state names ("closed", "open", "half-open").
	From, To string
	// Level is the degradation-ladder level after the transition (0 = the
	// configured algorithm).
	Level int
	// Reason is a short human-readable cause ("panic", "exhausted",
	// "validation", "probe-ok", "probe-failed", "cooldown").
	Reason string
}

// String renders the event for logs.
func (e BreakerEvent) String() string {
	return fmt.Sprintf("cycle %d: %s→%s level=%d (%s)", e.Cycle, e.From, e.To, e.Level, e.Reason)
}

// PipelineCounter names one defense-in-depth counter of the hardened
// placement pipeline.
type PipelineCounter int

const (
	PanicsRecovered     PipelineCounter = iota // algorithm panics recovered (Record keeps the value + stack)
	ValidationRejects                          // placements vetoed by commit-time validation (Record keeps the reason)
	DeadlineHits                               // cycles whose solver stopped on its time budget
	SolverExhaustions                          // cycles whose budget expired incumbent-less
	InvalidModels                              // cycles whose ILP model failed validation
	InvariantViolations                        // whole-cluster invariant check failures (Record keeps the violation)
	DegradedCycles                             // cycles served by a ladder algorithm other than the configured one
	ExactSolves                                // ILP solves that ran exact branch and bound
	ApproxSolves                               // no writer: the scheduler always solves exact; kept while benchmark/ reads it
	WarmStarts                                 // ILP solves seeded by an accepted warm start
	BreakerTrips                               // closed→open breaker transitions
	BreakerReopens                             // failed half-open probes
	BreakerResets                              // successful probes restoring the configured algorithm
)

var pipelineNames = [...]string{
	PanicsRecovered:     "panics recovered",
	ValidationRejects:   "validation rejects",
	DeadlineHits:        "solver deadline hits",
	SolverExhaustions:   "solver exhaustions",
	InvalidModels:       "invalid models",
	InvariantViolations: "invariant violations",
	DegradedCycles:      "degraded cycles",
	ExactSolves:         "exact solves",
	ApproxSolves:        "approx solves",
	WarmStarts:          "warm-started solves",
	BreakerTrips:        "breaker trips",
	BreakerReopens:      "breaker reopens",
	BreakerResets:       "breaker resets",
}

func (PipelineCounter) names() []string { return pipelineNames[:] }

// PipelineStats holds the hardened pipeline's counters, the latest
// diagnostic behind three of them and the circuit-breaker event log.
// Under the parallel placement pipeline independent sub-batches solve
// concurrently, and each may record a panic, deadline hit or rejection:
// the counters are atomics and the rest is mutex-guarded. Like its
// Counters, a PipelineStats must not be copied after first use.
type PipelineStats struct {
	Counters[PipelineCounter]

	mu     sync.Mutex
	last   [len(pipelineNames)]string
	events []BreakerEvent
}

// Record counts one k and keeps detail as its latest diagnostic.
func (p *PipelineStats) Record(k PipelineCounter, detail string) {
	p.Add(k, 1)
	p.mu.Lock()
	p.last[k] = detail
	p.mu.Unlock()
}

// Last returns the latest diagnostic Record kept for k.
func (p *PipelineStats) Last(k PipelineCounter) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last[k]
}

// Events returns a copy of the ordered breaker transition log.
func (p *PipelineStats) Events() []BreakerEvent {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]BreakerEvent(nil), p.events...)
}

// RecordTransition appends a breaker event and bumps the matching
// counter.
func (p *PipelineStats) RecordTransition(e BreakerEvent) {
	p.mu.Lock()
	p.events = append(p.events, e)
	p.mu.Unlock()
	switch {
	case e.From == "closed" && e.To == "open":
		p.Add(BreakerTrips, 1)
	case e.From == "half-open" && e.To == "open":
		p.Add(BreakerReopens, 1)
	case e.To == "closed":
		p.Add(BreakerResets, 1)
	}
}

// ExactSolves returns the ExactSolves count. It and the next three stay
// methods because benchmark/targets.go calls them.
func (p *PipelineStats) ExactSolves() int { return p.Get(ExactSolves) }

// ApproxSolves returns the ApproxSolves count: always 0, as the counter
// has no writer. It stays while benchmark/targets.go reads it.
func (p *PipelineStats) ApproxSolves() int { return p.Get(ApproxSolves) }

// WarmStarts returns the WarmStarts count.
func (p *PipelineStats) WarmStarts() int { return p.Get(WarmStarts) }

// DeadlineHits returns the DeadlineHits count.
func (p *PipelineStats) DeadlineHits() int { return p.Get(DeadlineHits) }
