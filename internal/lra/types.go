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
	// ExactSolves counts the ILP solves (branch-and-bound) this
	// invocation ran. Heuristic algorithms leave it zero.
	ExactSolves int
	// Nodes sums the branch-and-bound nodes of those solves
	// (ilp.Solution.Nodes): 1 for a solve that closed at the root on a
	// warm incumbent.
	Nodes int
	// WarmStarts counts solves whose initial incumbent came from an
	// accepted warm start (the greedy heuristic's placement).
	WarmStarts int
	// DecidedPlaces counts Places that returned a decided fallback with
	// no model built, SolverDecodes the solver placements decoded, and
	// SolverCommits those returned over the fallback.
	DecidedPlaces, SolverDecodes, SolverCommits int
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
	// SolverBudget bounds the ILP solve time (≤ 0 = DefaultSolverBudget).
	// Ignored by the heuristic algorithms.
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

// DefaultSolverBudget is the ILP solve budget when none is configured.
const DefaultSolverBudget = 2 * time.Second

func (o Options) solverBudget() time.Duration {
	if o.SolverBudget <= 0 {
		return DefaultSolverBudget
	}
	return o.SolverBudget
}

// Algorithm is an LRA placement algorithm. Place returns the proposed
// assignments, which Medea's core hands to the task-based scheduler for
// the actual allocation (§3, steps 1–3).
//
// state is the current cluster condition including already-running LRAs
// and task-based containers; apps are the LRAs submitted in the latest
// scheduling interval; active are the constraints of already deployed LRAs
// plus the cluster operator's (from the constraint manager). The
// constraints of the new apps themselves travel inside apps.
//
// Place plans on state itself: it may allocate and release containers
// there while it works, and returns state exactly as it found it —
// container map and every γ included — on every path, a panic too. It
// copies nothing, so a caller that needs the pre-Place state beside a
// running Place owns that copy, and two concurrent Places never share one
// cluster.
type Algorithm interface {
	Name() string
	Place(state *cluster.Cluster, apps []*Application, active []constraint.Entry, opts Options) *Result
}

// CycleAware is unused: no algorithm implements it and core never calls
// it, because no algorithm keeps state between scheduling cycles. It is
// kept only because benchmark/trace.go still names it.
type CycleAware interface {
	BeginCycle()
}

// SequentialPlacer is optionally implemented by algorithms whose
// placement draws from internal mutable state — a seeded RNG, like the
// YARN baseline's first-fit frontier — so that one Place per constraint
// component would draw differently from one Place per batch. Core places
// the whole batch in one call when PlaceSequentially reports true.
type SequentialPlacer interface {
	PlaceSequentially() bool
}
