package metrics

// PipelineCounter names one defense-in-depth counter of the hardened
// placement pipeline.
type PipelineCounter int

const (
	PanicsRecovered     PipelineCounter = iota // algorithm panics recovered
	ValidationRejects                          // placements vetoed by commit-time validation
	DeadlineHits                               // cycles whose solver stopped on its time budget
	SolverExhaustions                          // cycles whose budget expired incumbent-less
	InvalidModels                              // cycles whose ILP model failed validation
	InvariantViolations                        // whole-cluster invariant check failures
	DegradedCycles                             // cycles served by a ladder algorithm other than the configured one
	ExactSolves                                // ILP solves that ran exact branch and bound
	ApproxSolves                               // no writer: the scheduler always solves exact; kept while benchmark/ reads it
	WarmStarts                                 // ILP solves seeded by an accepted warm start
	DecidedPlaces                              // ILP Places whose heuristic fallback was decided: no model, no solve
	SolverDecodes                              // solver placements decoded for the final selection
	SolverCommits                              // solver placements chosen over the heuristic fallback
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
	DecidedPlaces:       "decided places",
	SolverDecodes:       "solver decodes",
	SolverCommits:       "solver commits",
	BreakerTrips:        "breaker trips",
	BreakerReopens:      "breaker reopens",
	BreakerResets:       "breaker resets",
}

func (PipelineCounter) names() []string { return pipelineNames[:] }

// PipelineStats holds the hardened pipeline's counters. The scheduling
// loop is their one writer; they are atomics, like every layer's
// Counters, so a caller may read them from another goroutine while the
// loop runs. Like its Counters, a PipelineStats must not be copied after
// first use.
type PipelineStats struct {
	Counters[PipelineCounter]
}

// RecordTransition bumps the counter a breaker transition between the
// named states ("closed", "open", "half-open") falls under.
func (p *PipelineStats) RecordTransition(from, to string) {
	switch {
	case from == "closed" && to == "open":
		p.Add(BreakerTrips, 1)
	case from == "half-open" && to == "open":
		p.Add(BreakerReopens, 1)
	case to == "closed":
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
