// Package lra implements Medea's LRA scheduler (§5 of the paper): the
// ILP-based placement algorithm (Figure 5), the Medea-NC and Medea-TP
// heuristics, the Serial baseline, and re-implementations of Kubernetes'
// algorithm (J-Kube) and its cardinality-aware extension (J-Kube++) used
// as comparison points in §7.
package lra

import (
	"fmt"
	"time"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/ilp"
	"medea/internal/resource"
)

// ContainerGroup is a homogeneous set of containers within an LRA request:
// same resource demand and same tags (e.g. "10 region servers, <2GB,1c>,
// tags {hb, hb_rs}").
type ContainerGroup struct {
	// Name distinguishes the group within the application (e.g. "worker").
	Name string
	// Count is the number of containers requested.
	Count int
	// Demand is the per-container resource demand.
	Demand resource.Vector
	// Tags are attached to every container of the group; the appID tag is
	// added automatically at submission.
	Tags []constraint.Tag
}

// Application is an LRA submission: container groups plus placement
// constraints (the rich LRA interface of §3).
type Application struct {
	ID          string
	Groups      []ContainerGroup
	Constraints []constraint.Constraint
}

// Validate checks the application request.
func (a *Application) Validate() error {
	if a.ID == "" {
		return fmt.Errorf("lra: application without ID")
	}
	if len(a.Groups) == 0 {
		return fmt.Errorf("lra: application %s has no container groups", a.ID)
	}
	for _, g := range a.Groups {
		if g.Count <= 0 {
			return fmt.Errorf("lra: application %s group %q has count %d", a.ID, g.Name, g.Count)
		}
		if !g.Demand.IsPositive() {
			return fmt.Errorf("lra: application %s group %q has non-positive demand %v", a.ID, g.Name, g.Demand)
		}
	}
	for _, c := range a.Constraints {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("lra: application %s: %w", a.ID, err)
		}
	}
	return nil
}

// NumContainers returns the total container count across groups.
func (a *Application) NumContainers() int {
	n := 0
	for _, g := range a.Groups {
		n += g.Count
	}
	return n
}

// EffectiveTags returns a group's tags plus the automatic appID tag.
func (a *Application) EffectiveTags(g ContainerGroup) []constraint.Tag {
	tags := make([]constraint.Tag, 0, len(g.Tags)+1)
	tags = append(tags, g.Tags...)
	tags = append(tags, constraint.AppIDTag(a.ID))
	return tags
}

// Assignment maps one requested container to a node.
type Assignment struct {
	Container cluster.ContainerID
	Group     string
	Node      cluster.NodeID
	Demand    resource.Vector
	Tags      []constraint.Tag
}

// Placement is the outcome for one application in a scheduling round.
// Placement is all-or-nothing (Equation 4): either every container has an
// assignment or the application is unplaced.
type Placement struct {
	AppID       string
	Placed      bool
	Assignments []Assignment
}

// Result is the outcome of one scheduler invocation over a batch of LRAs.
type Result struct {
	Placements []Placement
	// Latency is the wall-clock time the algorithm spent.
	Latency time.Duration
	// DeadlineHit reports that the solver stopped on its time budget; the
	// placements are the best incumbent found (or a heuristic fallback).
	DeadlineHit bool
	// Exhausted reports that the budget expired before any incumbent was
	// found, so the placements are entirely the heuristic fallback's. The
	// core's circuit breaker treats it as a failure of the configured
	// algorithm even though the fallback placements still commit.
	Exhausted bool
	// Invalid reports that the solver's model failed validation (a
	// defective constraint set); like Exhausted, the placements come from
	// the heuristic fallback and the breaker counts a failure.
	Invalid bool
	// ExactSolves and ApproxSolves count the ILP solves this invocation
	// ran down each path (exact branch-and-bound vs. the LP-rounding fast
	// path). Heuristic algorithms leave them zero.
	ExactSolves  int
	ApproxSolves int
	// WarmStarts counts solves whose initial incumbent came from an
	// accepted warm start (the greedy heuristic's placement or the
	// cross-cycle memory).
	WarmStarts int
}

// PlacedApps returns the number of fully placed applications.
func (r *Result) PlacedApps() int {
	n := 0
	for _, p := range r.Placements {
		if p.Placed {
			n++
		}
	}
	return n
}

// Objective weights for Equation 1 (§7.1 defaults). W4 is the optional
// load-balance component §5.2 mentions ("additional ones can be easily
// added, such as load imbalance"): a small headroom reward that makes the
// solver prefer, among otherwise-equal placements, the one leaving nodes
// balanced for future scheduling cycles.
type Weights struct {
	W1 float64 // maximize number of scheduled LRAs
	W2 float64 // minimize constraint violations
	W3 float64 // minimize resource fragmentation
	W4 float64 // balance node load (optional component)
}

// DefaultWeights are the paper's evaluation settings: w1=1, w2=0.5,
// w3=0.25, plus a small load-balance tiebreak.
func DefaultWeights() Weights { return Weights{W1: 1, W2: 0.5, W3: 0.25, W4: 0.05} }

// Options configures a scheduling invocation.
type Options struct {
	Weights Weights
	// SolverBudget bounds the ILP solve time (0 = 2s). Ignored by the
	// heuristic algorithms.
	SolverBudget time.Duration
	// MaxCandidates caps the number of candidate nodes materialised in the
	// ILP per container group (0 = automatic: twice the group's container
	// count, at least 8); nodes the greedy warm start used are added on
	// top. Pruning keeps the model tractable on multi-thousand-node
	// clusters.
	MaxCandidates int
	// Clock is the time source for latency stamps and the ILP solver's
	// deadline (nil = time.Now). Deterministic harnesses inject a virtual
	// clock so placement outcomes never depend on the wall clock.
	Clock func() time.Time
	// SolverMode selects the ILP solving path: exact branch-and-bound
	// (the zero value), the LP-relaxation + randomized-rounding fast
	// path, or automatic per-instance selection. Heuristic algorithms
	// ignore it.
	SolverMode ilp.Mode
	// DisableCycleWarm turns off the ILP scheduler's cross-cycle memory:
	// the previous cycle's placements and branch order are then neither
	// recorded nor replayed as warm starts into later solves.
	DisableCycleWarm bool
}

// clock returns the configured time source, defaulting to the wall clock.
func (o Options) clock() func() time.Time {
	if o.Clock != nil {
		return o.Clock
	}
	return time.Now
}

func (o Options) weights() Weights {
	if o.Weights == (Weights{}) {
		return DefaultWeights()
	}
	return o.Weights
}

func (o Options) solverBudget() time.Duration {
	if o.SolverBudget == 0 {
		return 2 * time.Second
	}
	return o.SolverBudget
}

// Algorithm is an LRA placement algorithm. Place must not mutate state; it
// returns the proposed assignments, which Medea's core hands to the
// task-based scheduler for the actual allocation (§3, steps 1–3).
//
// state is the current cluster condition including already-running LRAs
// and task-based containers; apps are the LRAs submitted in the latest
// scheduling interval; active are the constraints of already deployed LRAs
// plus the cluster operator's (from the constraint manager). The
// constraints of the new apps themselves travel inside apps.
type Algorithm interface {
	Name() string
	Place(state *cluster.Cluster, apps []*Application, active []constraint.Entry, opts Options) *Result
}

// CycleAware is optionally implemented by algorithms that keep
// cross-cycle state — the ILP scheduler's warm-start memory. Core calls
// BeginCycle exactly once per scheduling cycle, on the cycle's main
// goroutine before any Place call of that cycle, so aging and pruning of
// that state is a deterministic function of the cycle count, never of
// wall time or goroutine interleavings.
type CycleAware interface {
	BeginCycle()
}

// SequentialPlacer is optionally implemented by algorithms whose Place
// must not run concurrently with itself — typically because placement
// draws from internal mutable state (a seeded RNG, like the YARN
// baseline's first-fit frontier). Core's parallel sub-batch fan-out
// checks it and falls back to one whole-batch call when
// PlaceSequentially reports true.
type SequentialPlacer interface {
	PlaceSequentially() bool
}
