package constraint

import (
	"fmt"
	"sort"
	"sync"
)

// Source identifies who registered a constraint.
type Source int

const (
	// SourceApplication marks constraints submitted by application owners.
	SourceApplication Source = iota
	// SourceOperator marks cluster-operator constraints; when in conflict
	// with application constraints, operator constraints override as long
	// as they are more restrictive (§5.2 "Resolution of constraint
	// conflicts").
	SourceOperator
)

// Entry is a registered constraint together with its provenance.
type Entry struct {
	// AppID is the owning application for SourceApplication entries,
	// empty for operator entries.
	AppID      string
	Source     Source
	Constraint Constraint
}

// Manager is the constraint manager: the central component storing all
// constraints — from application owners and cluster operators — giving
// Medea a global view of active constraints (§3, Figure 6). It is safe
// for concurrent use.
type Manager struct {
	mu       sync.RWMutex
	byApp    map[string][]Constraint
	operator []Constraint
}

// NewManager returns an empty constraint manager.
func NewManager() *Manager {
	return &Manager{byApp: make(map[string][]Constraint)}
}

// AddApplication validates and stores the constraints of a newly submitted
// LRA (step 2 of the LRA life-cycle, §6).
func (m *Manager) AddApplication(appID string, cs ...Constraint) error {
	if appID == "" {
		return fmt.Errorf("constraint: empty application ID")
	}
	for _, c := range cs {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("constraint: app %s: %w", appID, err)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.byApp[appID] = append(m.byApp[appID], cs...)
	return nil
}

// RemoveApplication drops all constraints of a finished LRA.
func (m *Manager) RemoveApplication(appID string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.byApp, appID)
}

// AddOperator validates and stores a cluster-operator constraint.
func (m *Manager) AddOperator(cs ...Constraint) error {
	for _, c := range cs {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("constraint: operator: %w", err)
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.operator = append(m.operator, cs...)
	return nil
}

// Application returns the constraints registered for appID.
func (m *Manager) Application(appID string) []Constraint {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]Constraint(nil), m.byApp[appID]...)
}

// Operator returns all cluster-operator constraints.
func (m *Manager) Operator() []Constraint {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]Constraint(nil), m.operator...)
}

// Active returns every stored constraint: those of all registered LRAs
// (already deployed and newly submitted) plus the operator's, which is the
// set the LRA scheduler considers at each invocation (§5.1).
func (m *Manager) Active() []Entry {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []Entry
	apps := make([]string, 0, len(m.byApp))
	for id := range m.byApp {
		apps = append(apps, id)
	}
	sort.Strings(apps)
	for _, id := range apps {
		for _, c := range m.byApp[id] {
			out = append(out, Entry{AppID: id, Source: SourceApplication, Constraint: c})
		}
	}
	for _, c := range m.operator {
		out = append(out, Entry{Source: SourceOperator, Constraint: c})
	}
	return out
}

// Apps returns the IDs of applications with registered constraints, sorted.
func (m *Manager) Apps() []string {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]string, 0, len(m.byApp))
	for id := range m.byApp {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Len returns the total number of stored constraints.
func (m *Manager) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := len(m.operator)
	for _, cs := range m.byApp {
		n += len(cs)
	}
	return n
}

// ResolveConflicts merges constraint atoms that target the same
// (subject, target, group) triple, implementing the paper's conflict
// policy: operator constraints override application constraints as long
// as they are more restrictive; remaining conflicts are left to the ILP,
// which minimises violations (§5.2). The returned entries have, for each
// conflicting triple, the application atom's bounds tightened to the
// operator's when the operator interval is contained in the application
// interval.
func ResolveConflicts(entries []Entry) []Entry {
	type key struct {
		subj, tgt string
		group     GroupName
	}
	// Collect the tightest operator bounds per triple.
	opBounds := make(map[key][2]int)
	for _, e := range entries {
		if e.Source != SourceOperator {
			continue
		}
		if a, ok := e.Constraint.Simple(); ok {
			k := key{a.Subject.String(), a.Target.String(), a.Group}
			if b, seen := opBounds[k]; seen {
				opBounds[k] = [2]int{max(b[0], a.Min), min(b[1], a.Max)}
			} else {
				opBounds[k] = [2]int{a.Min, a.Max}
			}
		}
	}
	out := make([]Entry, 0, len(entries))
	if len(opBounds) == 0 {
		return append(out, entries...) // nothing to override with
	}
	for _, e := range entries {
		if e.Source == SourceApplication {
			if a, ok := e.Constraint.Simple(); ok {
				k := key{a.Subject.String(), a.Target.String(), a.Group}
				if b, seen := opBounds[k]; seen && b[0] >= a.Min && b[1] <= a.Max && b[0] <= b[1] {
					// Operator interval is more restrictive and contained:
					// it overrides.
					a.Min, a.Max = b[0], b[1]
					e.Constraint = Weighted(a, e.Constraint.EffectiveWeight())
				}
			}
		}
		out = append(out, e)
	}
	return out
}
