// Package audit is the defense-in-depth layer around Medea's placement
// pipeline. The two-scheduler design (§3) makes the task-based scheduler
// the single writer of cluster state, but the core still has to trust the
// LRA algorithm's *proposals*: a buggy or deadline-truncated solver can
// emit over-capacity, constraint-violating or double-assigned placements.
// This package verifies each proposed placement against the live state
// before commit, and exposes a whole-cluster invariant checker the core
// can run after every cycle (off / metrics / fail-fast).
package audit

import (
	"fmt"
	"sort"
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

// CheckPlacement verifies one proposed placement for app against the
// current cluster state, before commit: assignment shape (known groups,
// per-group counts, demands and tags matching the request), target nodes
// known and healthy, capacity after each assignment, no double-assigned
// container IDs, and no new hard-constraint violations. It returns nil
// for unplaced proposals and the first defect found otherwise.
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

// CheckAssignments validates a raw assignment batch against the current
// state (CheckPlacement without the application shape). The repair path
// uses it directly on the remapped batch it actually commits.
func CheckAssignments(state *cluster.Cluster, appID string, assigns []lra.Assignment, entries []constraint.Entry) error {
	// Resolved once here, not per container: ViolationFor runs for every
	// container of the cluster, twice.
	hard := lra.ResolveEntries(HardEntries(entries))
	// Hard-constraint semantics are final-state: the whole batch is
	// tentatively applied to a clone, then every container that was clean
	// before must still be clean (a batch may carry affinity constraints
	// only its own later assignments satisfy).
	var violatedBefore map[cluster.ContainerID]bool
	if len(hard) > 0 {
		violatedBefore = make(map[cluster.ContainerID]bool)
		for _, id := range state.ContainerIDs() {
			if lra.ViolationFor(state, hard, id) > 0 {
				violatedBefore[id] = true
			}
		}
	}
	clone := state.Clone()
	for _, a := range assigns {
		if int(a.Node) < 0 || int(a.Node) >= clone.NumNodes() {
			return fmt.Errorf("audit: %s: assignment %s targets unknown node %d", appID, a.Container, a.Node)
		}
		if st := clone.Node(a.Node).State(); st != cluster.NodeUp {
			return fmt.Errorf("audit: %s: assignment %s targets %s node %s",
				appID, a.Container, st, clone.Node(a.Node).Name)
		}
		if !a.Demand.IsNonNegative() {
			return fmt.Errorf("audit: %s: assignment %s has negative demand %v", appID, a.Container, a.Demand)
		}
		// Allocate on the clone catches double assignment (within the
		// batch and against live containers) and capacity overruns, with
		// each assignment charged before the next is checked.
		if err := clone.Allocate(a.Node, a.Container, a.Demand, a.Tags); err != nil {
			return fmt.Errorf("audit: %s: %w", appID, err)
		}
	}
	if len(hard) > 0 {
		for _, id := range clone.ContainerIDs() {
			if violatedBefore[id] {
				continue
			}
			if v := lra.ViolationFor(clone, hard, id); v > 0 {
				return fmt.Errorf("audit: %s: hard constraint violated for container %s (extent %g)", appID, id, v)
			}
		}
	}
	return nil
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
		if want := tagKey(app.EffectiveTags(g)); tagKey(a.Tags) != want {
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

// tagKey canonicalises a tag vector for multiset comparison.
func tagKey(tags []constraint.Tag) string {
	ss := make([]string, len(tags))
	for i, t := range tags {
		ss[i] = string(t)
	}
	sort.Strings(ss)
	return strings.Join(ss, "\x00")
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
