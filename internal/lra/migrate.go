package lra

import (
	"sort"
	"time"

	"medea/internal/cluster"
	"medea/internal/constraint"
)

// Container migration is the reactive complement §5.4 sketches for
// Medea's proactive placement: under high load, when LRAs enter and
// leave at high rates, previously good placements accumulate constraint
// violations; migrating a few containers restores placement quality. The
// planner below implements it as hill climbing over the true violation
// metric, with each move charged a configurable cost so the plan only
// proposes moves that pay for themselves (the migration-cost term the
// paper suggests adding to the objective).

// Move relocates one container.
type Move struct {
	Container cluster.ContainerID
	From, To  cluster.NodeID
}

// MigrationOptions bounds a planning run.
type MigrationOptions struct {
	// MaxMoves caps the number of proposed moves (0 = 8).
	MaxMoves int
	// MoveCost is the violation-extent improvement a move must exceed to
	// be worth its disruption (0 = 0.1). This is the migration cost of
	// §5.4, expressed in the same units as Equation 8 extents.
	MoveCost float64
	// Movable restricts which containers may move (nil = all). Task
	// containers are typically excluded: killing them has its own cost.
	Movable func(cluster.ContainerID) bool
	// Clock is the time source for the plan's latency stamp
	// (nil = time.Now).
	Clock func() time.Time
}

func (o MigrationOptions) maxMoves() int {
	if o.MaxMoves <= 0 {
		return 8
	}
	return o.MaxMoves
}

func (o MigrationOptions) moveCost() float64 {
	if o.MoveCost <= 0 {
		return 0.1
	}
	return o.MoveCost
}

// MigrationPlan is the outcome of PlanMigration.
type MigrationPlan struct {
	Moves []Move
	// BeforeExtent and AfterExtent are the weighted violation extents of
	// the cluster before and after applying the plan.
	BeforeExtent float64
	AfterExtent  float64
	Latency      time.Duration
}

// Improvement returns the extent reduction the plan achieves.
func (p *MigrationPlan) Improvement() float64 { return p.BeforeExtent - p.AfterExtent }

// PlanMigration proposes container moves that reduce the weighted
// violation extent of the current placement under the active constraints.
// It does not mutate state; callers apply the moves through the
// task-based scheduler (see core.Medea.Rebalance).
//
// The planner is greedy hill climbing: at each step it moves the
// container whose relocation yields the largest extent reduction, as long
// as the reduction exceeds MoveCost. This terminates (extent strictly
// decreases by at least MoveCost per move) and never worsens a placement.
func PlanMigration(state *cluster.Cluster, entries []constraint.Entry, opts MigrationOptions) *MigrationPlan {
	clk := opts.Clock
	if clk == nil {
		clk = time.Now
	}
	start := clk()
	work := state.Clone()
	cons := ResolveEntries(entries)
	plan := &MigrationPlan{BeforeExtent: evaluateResolved(work, cons).TotalExtent}

	for len(plan.Moves) < opts.maxMoves() {
		move, gain := bestMove(work, cons, opts)
		if gain <= opts.moveCost() {
			break
		}
		// Apply the move on the working copy.
		tags, _ := work.ContainerTags(move.Container)
		demand := work.ContainerDemand(move.Container)
		if err := work.Release(move.Container); err != nil {
			break // unreachable: the container was just enumerated
		}
		if err := work.Allocate(move.To, move.Container, demand, tags); err != nil {
			// Should not happen (bestMove verified the fit); restore.
			if rerr := work.Allocate(move.From, move.Container, demand, tags); rerr != nil {
				panic(rerr) // unreachable: restoring the released container
			}
			break
		}
		plan.Moves = append(plan.Moves, move)
	}
	plan.AfterExtent = evaluateResolved(work, cons).TotalExtent
	plan.Latency = clk().Sub(start)
	return plan
}

// bestMove scans violating containers and returns the single move with
// the largest extent reduction.
func bestMove(work *cluster.Cluster, cons []constraint.Entry, opts MigrationOptions) (Move, float64) {
	type candidate struct {
		id     cluster.ContainerID
		node   cluster.NodeID
		tags   []constraint.Tag
		extent float64
	}
	var violating []candidate
	for _, id := range work.ContainerIDs() {
		if opts.Movable != nil && !opts.Movable(id) {
			continue
		}
		node, ok := work.ContainerNode(id)
		if !ok {
			continue
		}
		tags, _ := work.ContainerTags(id)
		if ext := ViolationFor(work, cons, id); ext > 0 {
			violating = append(violating, candidate{id: id, node: node, tags: tags, extent: ext})
		}
	}
	// Worst first: the biggest extents have the most to gain.
	sort.Slice(violating, func(i, j int) bool {
		if violating[i].extent != violating[j].extent {
			return violating[i].extent > violating[j].extent
		}
		return violating[i].id < violating[j].id
	})

	best := Move{}
	bestGain := 0.0
	for _, c := range violating {
		rel := relevantEntries(cons, c.tags)
		// Temporarily lift the container out to evaluate destinations.
		demand := work.ContainerDemand(c.id)
		if err := work.Release(c.id); err != nil {
			continue
		}
		before := placementDelta(work, rel, c.tags, c.node)
		for _, n := range work.Nodes() {
			if n.ID == c.node || !n.Available() || !demand.Fits(n.Free()) {
				continue
			}
			gain := before - placementDelta(work, rel, c.tags, n.ID)
			if gain > bestGain+1e-12 {
				bestGain = gain
				best = Move{Container: c.id, From: c.node, To: n.ID}
			}
		}
		if err := work.Allocate(c.node, c.id, demand, c.tags); err != nil {
			panic(err) // unreachable: restoring the released container
		}
		if bestGain > 0 {
			// The worst container already has a strictly improving move;
			// later (smaller-extent) candidates rarely beat it and the
			// scan is O(containers × nodes) otherwise.
			break
		}
	}
	return best, bestGain
}
