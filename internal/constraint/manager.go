package constraint

import (
	"fmt"
	"slices"
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
	apps     []string // byApp's keys, sorted
	operator []Constraint
	n        int // constraints stored, byApp's and the operator's
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
	if i, found := slices.BinarySearch(m.apps, appID); !found {
		m.apps = slices.Insert(m.apps, i, appID)
	}
	m.byApp[appID] = append(m.byApp[appID], cs...)
	m.n += len(cs)
	return nil
}

// RemoveApplication drops all constraints of a finished LRA.
func (m *Manager) RemoveApplication(appID string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i, found := slices.BinarySearch(m.apps, appID); found {
		m.apps = slices.Delete(m.apps, i, i+1)
		m.n -= len(m.byApp[appID])
		delete(m.byApp, appID)
	}
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
	m.n += len(cs)
	return nil
}

// DropOperator removes the n operator constraints added last: it undoes
// an AddOperator of n constraints that could not be made durable.
func (m *Manager) DropOperator(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n = min(n, len(m.operator))
	m.operator = m.operator[:len(m.operator)-n]
	m.n -= n
}

// Operator returns all cluster-operator constraints.
func (m *Manager) Operator() []Constraint {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return append([]Constraint(nil), m.operator...)
}

// Active returns every stored constraint: those of all registered LRAs
// (already deployed and newly submitted) plus the operator's, which is the
// set the LRA scheduler considers at each invocation (§5.1). The list is
// fresh, sized exactly, applications' entries in app ID order first: the
// caller may change it.
func (m *Manager) Active() []Entry {
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]Entry, 0, m.n)
	for _, id := range m.apps {
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
	return slices.Clone(m.apps)
}

// Len returns the total number of stored constraints.
func (m *Manager) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.n
}

// ResolveConflicts merges constraint atoms that target the same
// (subject, target, group) triple, implementing the paper's conflict
// policy: operator constraints override application constraints as long
// as they are more restrictive; remaining conflicts are left to the ILP,
// which minimises violations (§5.2). The returned entries have, for each
// conflicting triple, the application atom's bounds tightened to the
// operator's when the operator interval is contained in the application
// interval.
//
// Two atoms share a triple when their groups are equal and their subject
// and target expressions hold the same tag multisets (SameVector). A
// map keyed by the expressions' VectorHash finds the candidates, so the
// cost stays linear in the entries however many operator constraints
// there are.
//
// ResolveConflicts never writes to entries. With no simple operator
// constraint there is nothing to override, and it returns entries itself,
// not a copy; otherwise it returns a new list.
func ResolveConflicts(entries []Entry) []Entry {
	type key struct {
		subj, tgt uint64
		group     GroupName
	}
	keyOf := func(a Atom) key { return key{VectorHash(a.Subject), VectorHash(a.Target), a.Group} }
	// The tightest operator bounds per triple: ops[i] carries them in
	// its Min and Max; next[i] is the next triple with ops[i]'s key, or -1.
	var ops []Atom
	var next []int
	first := make(map[key]int)
	find := func(a Atom, k key) int {
		i, ok := first[k]
		if !ok {
			return -1
		}
		for ; i >= 0; i = next[i] {
			if SameVector(ops[i].Subject, a.Subject) && SameVector(ops[i].Target, a.Target) {
				return i
			}
		}
		return -1
	}
	for _, e := range entries {
		if e.Source != SourceOperator {
			continue
		}
		if a, ok := e.Constraint.Simple(); ok {
			k := keyOf(a)
			if i := find(a, k); i >= 0 {
				ops[i].Min, ops[i].Max = max(ops[i].Min, a.Min), min(ops[i].Max, a.Max)
				continue
			}
			head, seen := first[k]
			if !seen {
				head = -1
			}
			first[k] = len(ops)
			ops, next = append(ops, a), append(next, head)
		}
	}
	if len(ops) == 0 {
		return entries // nothing to override with
	}
	out := make([]Entry, 0, len(entries))
	for _, e := range entries {
		if e.Source == SourceApplication {
			if a, ok := e.Constraint.Simple(); ok {
				if i := find(a, keyOf(a)); i >= 0 {
					if b := ops[i]; b.Min >= a.Min && b.Max <= a.Max && b.Min <= b.Max {
						// Operator interval is more restrictive and contained:
						// it overrides.
						a.Min, a.Max = b.Min, b.Max
						e.Constraint = Weighted(a, e.Constraint.EffectiveWeight())
					}
				}
			}
		}
		out = append(out, e)
	}
	return out
}
