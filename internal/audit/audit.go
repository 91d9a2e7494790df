// Package audit is the defense-in-depth layer around Medea's placement
// pipeline. The two-scheduler design (§3) makes the task-based scheduler
// the single writer of cluster state, but the core still has to trust the
// LRA algorithm's *proposals*: a buggy or deadline-truncated solver can
// emit over-capacity, constraint-violating or double-assigned placements.
// This package verifies each proposed placement against the live state
// before commit, in place on the live cluster (Undo rolls an accepted
// placement back, so nothing is copied), and exposes a whole-cluster
// invariant checker the core can run after every cycle (off / metrics /
// fail-fast).
package audit

import (
	"fmt"
	"strings"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/lra"
	"medea/internal/resource"
)

// Mode selects how the core reacts to post-commit invariant violations.
// Commit-time placement validation is always on; Mode only governs the
// (more expensive) whole-cluster checker.
type Mode int

const (
	// Off skips the post-commit whole-cluster checker (default).
	Off Mode = iota
	// Metrics runs the checker after every cycle and counts violations in
	// the pipeline metrics without interrupting scheduling.
	Metrics
	// FailFast behaves like Metrics but panics on a violation — for
	// tests, CI and the simulator, where corrupted state should abort the
	// run at the first cycle that produced it.
	FailFast
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Off:
		return "off"
	case Metrics:
		return "metrics"
	case FailFast:
		return "failfast"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ParseMode parses the textual form used by flags ("off", "metrics",
// "failfast").
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "off", "":
		return Off, nil
	case "metrics":
		return Metrics, nil
	case "failfast", "fail-fast":
		return FailFast, nil
	default:
		return Off, fmt.Errorf("audit: unknown mode %q (want off, metrics or failfast)", s)
	}
}

// DefaultHardWeight is the constraint weight at or above which the audit
// treats a constraint as hard. All Medea constraints are soft (§4.2);
// operators emulate hard constraints with large weights, so validation
// only vetoes placements that break those.
const DefaultHardWeight = 100

// HardEntries filters constraint entries to the audited-as-hard subset:
// EffectiveWeight >= DefaultHardWeight. Soft constraints may legitimately
// be violated for a better global objective and never cause a reject.
func HardEntries(entries []constraint.Entry) []constraint.Entry {
	var out []constraint.Entry
	for _, e := range entries {
		if e.Constraint.EffectiveWeight() >= DefaultHardWeight {
			out = append(out, e)
		}
	}
	return out
}

// CheckPlacement verifies one proposed placement for app against
// cluster state, before commit: assignment shape (known groups,
// per-group counts, demands and tags matching the request), target nodes
// known and healthy, capacity after each assignment, no double-assigned
// container IDs, and no new hard-constraint violations. It validates in
// place: an accepted placement stays allocated on state until the
// caller undoes it (Undo), so a caller validating a batch in order sees
// each accepted placement in the next one's state; a veto undoes itself.
// It returns nil for unplaced proposals and the first defect found
// otherwise. A nil app skips the shape check, for a caller that checked
// the shape itself (core maps a repair onto the lost containers first).
func CheckPlacement(state *cluster.Cluster, app *lra.Application, p *lra.Placement, entries []constraint.Entry) error {
	if p == nil || !p.Placed {
		return nil
	}
	if app != nil {
		if err := checkShape(app, p); err != nil {
			return err
		}
	}
	return CheckAssignments(state, p.AppID, p.Assignments, entries)
}

// CheckAssignments validates a raw assignment batch on state
// (CheckPlacement without the application shape), in place like it: an
// accepted batch stays allocated until the caller undoes it, a veto
// undoes itself.
func CheckAssignments(state *cluster.Cluster, appID string, assigns []lra.Assignment, entries []constraint.Entry) error {
	// Resolution keeps every weight, so a list without hard entries
	// resolves to none. One with them is resolved whole before it is
	// filtered again: an operator override tightens the hard constraint
	// it overrides whatever its own weight, as Evaluate prices it.
	hard := HardEntries(entries)
	if len(hard) > 0 {
		hard = HardEntries(lra.ResolveEntries(entries))
	}
	// Hard-constraint semantics are final-state: the whole batch is
	// tentatively applied, then every container that was clean before
	// must still be clean (a batch may carry affinity constraints only its
	// own later assignments satisfy). Only the containers in the batch's
	// region can change (lra.ViolationRegion), so only they are priced.
	var region *lra.ViolationRegion
	var before []lra.Violation
	if len(hard) > 0 {
		nodes := make([]cluster.NodeID, len(assigns))
		for i, a := range assigns {
			nodes[i] = a.Node
		}
		region = lra.NewViolationRegion(state, hard, nodes)
		before = region.Violations(state)
	}
	err := allocateAll(state, appID, assigns)
	if err == nil && len(hard) > 0 {
		if v, ok := firstNew(before, region.Violations(state)); ok {
			err = fmt.Errorf("audit: %s: hard constraint violated for container %s (extent %g)", appID, v.Container, v.Extent)
			Undo(state, assigns)
		}
	}
	return err
}

// firstNew returns the first violator of after, in ID order, that before
// does not list. Both lists are sorted by ID (ViolationRegion.Violations).
func firstNew(before, after []lra.Violation) (lra.Violation, bool) {
	i := 0
	for _, v := range after {
		for i < len(before) && before[i].Container < v.Container {
			i++
		}
		if i == len(before) || before[i].Container != v.Container {
			return v, true
		}
	}
	return lra.Violation{}, false
}

// allocateAll charges each assignment on state in order, checking it
// first; on the first defect it undoes the ones before it.
func allocateAll(state *cluster.Cluster, appID string, assigns []lra.Assignment) error {
	for i, a := range assigns {
		var err error
		switch {
		case int(a.Node) < 0 || int(a.Node) >= state.NumNodes():
			err = fmt.Errorf("audit: %s: assignment %s targets unknown node %d", appID, a.Container, a.Node)
		case state.Node(a.Node).State() != cluster.NodeUp:
			err = fmt.Errorf("audit: %s: assignment %s targets %s node %s",
				appID, a.Container, state.Node(a.Node).State(), state.Node(a.Node).Name)
		default:
			// Allocate catches double assignment (within the batch and
			// against live containers), negative demands and capacity
			// overruns, with each assignment charged before the next is
			// checked.
			if aerr := state.Allocate(a.Node, a.Container, a.Demand, a.Tags); aerr != nil {
				err = fmt.Errorf("audit: %s: %w", appID, aerr)
			}
		}
		if err != nil {
			Undo(state, assigns[:i])
			return err
		}
	}
	return nil
}

// Undo releases the assignments of a placement validated in place, in
// reverse order: every node's usage and count, the container map and
// every tag multiset are left as they were before them. Undoing several accepted placements takes
// them in reverse of the order they were validated in.
func Undo(state *cluster.Cluster, assigns []lra.Assignment) {
	for i := len(assigns) - 1; i >= 0; i-- {
		if err := state.Release(assigns[i].Container); err != nil {
			panic(err) // unreachable: releasing an allocation validated in place
		}
	}
}

// checkShape verifies that the assignments cover exactly the requested
// container groups with the requested demands and tags.
func checkShape(app *lra.Application, p *lra.Placement) error {
	groups := make(map[string]lra.ContainerGroup, len(app.Groups))
	for _, g := range app.Groups {
		groups[g.Name] = g
	}
	count := make(map[string]int, len(groups))
	for _, a := range p.Assignments {
		g, ok := groups[a.Group]
		if !ok {
			return fmt.Errorf("audit: %s: assignment %s references unknown group %q", p.AppID, a.Container, a.Group)
		}
		if a.Demand != g.Demand {
			return fmt.Errorf("audit: %s: assignment %s demand %v != group %q demand %v",
				p.AppID, a.Container, a.Demand, a.Group, g.Demand)
		}
		if !constraint.SameVector(a.Tags, app.EffectiveTags(g)) {
			return fmt.Errorf("audit: %s: assignment %s tags %v != group %q effective tags",
				p.AppID, a.Container, a.Tags, a.Group)
		}
		count[a.Group]++
	}
	for _, g := range app.Groups {
		if count[g.Name] != g.Count {
			return fmt.Errorf("audit: %s: group %q has %d assignments, want %d",
				p.AppID, g.Name, count[g.Name], g.Count)
		}
	}
	return nil
}

// QueueAccounting is the slice of the task-based scheduler the invariant
// checker needs.
type QueueAccounting interface {
	Queues() []string
	QueueUsed(name string) resource.Vector
}

// CheckCluster verifies whole-cluster invariants after a cycle: cluster
// bookkeeping is self-consistent and within capacity on every node
// (cluster.CheckAccounting), task-queue accounting is non-negative, and
// every application in the constraint registry is still known to the
// scheduler (registry ⊆ deployed ∪ pending). queues and known may be nil
// to skip their checks.
func CheckCluster(state *cluster.Cluster, queues QueueAccounting, registered []string, known func(appID string) bool) error {
	if err := state.CheckAccounting(); err != nil {
		return err
	}
	if queues != nil {
		for _, q := range queues.Queues() {
			if used := queues.QueueUsed(q); !used.IsNonNegative() {
				return fmt.Errorf("audit: queue %s has negative usage %v", q, used)
			}
		}
	}
	if known != nil {
		for _, appID := range registered {
			if !known(appID) {
				return fmt.Errorf("audit: constraint registry references unknown application %s", appID)
			}
		}
	}
	return nil
}
