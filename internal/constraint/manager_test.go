package constraint

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

func TestManagerAddRemove(t *testing.T) {
	m := NewManager()
	if err := m.AddApplication("app1", New(Affinity(E("a"), E("b"), Node))); err != nil {
		t.Fatal(err)
	}
	if err := m.AddApplication("app2", New(AntiAffinity(E("c"), E("d"), Rack))); err != nil {
		t.Fatal(err)
	}
	if err := m.AddOperator(New(MaxCardinality(E("spark"), E("spark"), 5, Rack))); err != nil {
		t.Fatal(err)
	}
	if got := m.Len(); got != 3 {
		t.Errorf("Len = %d, want 3", got)
	}
	if got := len(m.Active()); got != 3 {
		t.Errorf("Active = %d entries, want 3", got)
	}
	if got := m.Apps(); len(got) != 2 || got[0] != "app1" || got[1] != "app2" {
		t.Errorf("Apps = %v", got)
	}
	m.RemoveApplication("app1")
	if got := m.Len(); got != 2 {
		t.Errorf("Len after remove = %d, want 2", got)
	}
	for _, e := range m.Active() {
		if e.AppID == "app1" {
			t.Errorf("removed app still has constraint %v", e.Constraint)
		}
	}
	if got := len(m.Operator()); got != 1 {
		t.Errorf("Operator = %d, want 1", got)
	}
}

func TestManagerValidation(t *testing.T) {
	m := NewManager()
	if err := m.AddApplication("", New(Affinity(E("a"), E("b"), Node))); err == nil {
		t.Error("empty app ID accepted")
	}
	if err := m.AddApplication("x", Constraint{}); err == nil {
		t.Error("invalid constraint accepted")
	}
	if err := m.AddOperator(Constraint{}); err == nil {
		t.Error("invalid operator constraint accepted")
	}
}

func TestManagerActiveOrderDeterministic(t *testing.T) {
	m := NewManager()
	_ = m.AddApplication("b", New(Affinity(E("x"), E("y"), Node)))
	_ = m.AddApplication("a", New(Affinity(E("x"), E("y"), Node)))
	act := m.Active()
	if act[0].AppID != "a" || act[1].AppID != "b" {
		t.Errorf("Active not sorted by app: %v, %v", act[0].AppID, act[1].AppID)
	}
}

// TestManagerActiveMatchesSorted: after every step of random
// interleavings of AddApplication (new and known IDs, with zero, one or
// two constraints), RemoveApplication (known and unknown IDs),
// AddOperator and DropOperator (of none up to all of the operator's
// constraints), Active equals a reference built by sorting the stored app
// IDs and listing their constraints, then the operator's; it is sized
// exactly, and Len and Apps agree with the reference.
func TestManagerActiveMatchesSorted(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := NewManager()
		byApp := map[string][]Constraint{}
		var operator []Constraint
		draw := func() []Constraint {
			cs := make([]Constraint, rng.Intn(3))
			for k := range cs {
				cs[k] = New(MaxCardinality(E(Tag(fmt.Sprint("t", rng.Intn(5)))), E("x"), rng.Intn(4), Rack))
			}
			return cs
		}
		for step := 0; step < 300; step++ {
			id := fmt.Sprint("app-", rng.Intn(12))
			switch r := rng.Intn(10); {
			case r < 5:
				cs := draw()
				if err := m.AddApplication(id, cs...); err != nil {
					t.Fatal(err)
				}
				byApp[id] = append(byApp[id], cs...)
			case r < 7:
				m.RemoveApplication(id)
				delete(byApp, id)
			case r < 9:
				cs := draw()
				if err := m.AddOperator(cs...); err != nil {
					t.Fatal(err)
				}
				operator = append(operator, cs...)
			default:
				k := rng.Intn(len(operator) + 1)
				m.DropOperator(k)
				operator = operator[:len(operator)-k]
			}

			ids := make([]string, 0, len(byApp))
			for id := range byApp {
				ids = append(ids, id)
			}
			slices.Sort(ids)
			var want []Entry
			for _, id := range ids {
				for _, c := range byApp[id] {
					want = append(want, Entry{AppID: id, Source: SourceApplication, Constraint: c})
				}
			}
			for _, c := range operator {
				want = append(want, Entry{Source: SourceOperator, Constraint: c})
			}
			got := m.Active()
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("seed %d step %d: Active = %v, want %v", seed, step, got, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("seed %d step %d: Active has cap %d for %d entries", seed, step, cap(got), len(got))
			}
			if m.Len() != len(want) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, m.Len(), len(want))
			}
			if apps := m.Apps(); !slices.Equal(apps, ids) {
				t.Fatalf("seed %d step %d: Apps = %v, want %v", seed, step, apps, ids)
			}
		}
	}
}

// cloneEntries copies entries down to their atoms' expressions, so a
// write to any part of the original shows against the copy.
func cloneEntries(entries []Entry) []Entry {
	out := slices.Clone(entries)
	for i := range out {
		terms := slices.Clone(out[i].Constraint.Terms)
		for k, term := range terms {
			term = slices.Clone(term)
			for j := range term {
				term[j].Subject = slices.Clone(term[j].Subject)
				term[j].Target = slices.Clone(term[j].Target)
			}
			terms[k] = term
		}
		out[i].Constraint.Terms = terms
	}
	return out
}

// TestResolveConflictsLeavesInput: ResolveConflicts writes to none of the
// entries it is given — not with operator constraints that override an
// application's bounds, nor without any — and with no operator
// constraint it returns its input itself.
func TestResolveConflictsLeavesInput(t *testing.T) {
	app := func(id string, max int) Entry {
		return Entry{AppID: id, Source: SourceApplication, Constraint: New(MaxCardinality(E("spark"), E("spark"), max, Rack))}
	}
	dnf := Entry{AppID: "d", Source: SourceApplication, Constraint: Constraint{
		Terms: [][]Atom{{MaxCardinality(E("spark"), E("spark"), 5, Rack)}, {Affinity(E("spark"), E("hdfs"), Node)}},
	}}
	op := Entry{Source: SourceOperator, Constraint: New(MaxCardinality(E("spark"), E("spark"), 2, Rack))}

	plain := []Entry{app("a", 5), dnf, app("b", 4)}
	before := cloneEntries(plain)
	if out := ResolveConflicts(plain); &out[0] != &plain[0] || len(out) != len(plain) {
		t.Error("without operator constraints, ResolveConflicts did not return its input")
	}
	if !reflect.DeepEqual(plain, before) {
		t.Errorf("without operator constraints, the input changed: %v, was %v", plain, before)
	}

	withOp := []Entry{app("a", 5), op, dnf, app("b", 4)}
	before = cloneEntries(withOp)
	out := ResolveConflicts(withOp)
	if a, _ := out[0].Constraint.Simple(); a.Max != 2 {
		t.Fatalf("the operator did not override: cmax %d, want 2", a.Max)
	}
	if &out[0] == &withOp[0] {
		t.Error("with an override, ResolveConflicts returned its input")
	}
	if !reflect.DeepEqual(withOp, before) {
		t.Errorf("with operator constraints, the input changed: %v, was %v", withOp, before)
	}
}

// TestResolveConflicts covers §5.2: an operator constraint of "no more
// than 3 spark per rack" overrides an application's "no more than 5",
// because it is more restrictive; a *less* restrictive operator constraint
// does not override.
func TestResolveConflicts(t *testing.T) {
	app := Entry{AppID: "a", Source: SourceApplication,
		Constraint: New(MaxCardinality(E("spark"), E("spark"), 5, Rack))}
	opTight := Entry{Source: SourceOperator,
		Constraint: New(MaxCardinality(E("spark"), E("spark"), 3, Rack))}
	out := ResolveConflicts([]Entry{app, opTight})
	a, _ := out[0].Constraint.Simple()
	if a.Max != 3 {
		t.Errorf("application cmax = %d after resolve, want 3 (operator override)", a.Max)
	}

	opLoose := Entry{Source: SourceOperator,
		Constraint: New(MaxCardinality(E("spark"), E("spark"), 9, Rack))}
	out = ResolveConflicts([]Entry{app, opLoose})
	a, _ = out[0].Constraint.Simple()
	if a.Max != 5 {
		t.Errorf("application cmax = %d, want 5 (loose operator must not override)", a.Max)
	}

	// Different group: no conflict, no override.
	opOther := Entry{Source: SourceOperator,
		Constraint: New(MaxCardinality(E("spark"), E("spark"), 1, Node))}
	out = ResolveConflicts([]Entry{app, opOther})
	a, _ = out[0].Constraint.Simple()
	if a.Max != 5 {
		t.Errorf("cross-group override happened: cmax = %d", a.Max)
	}
}

// TestResolveConflictsKeysByStructure: an operator bound applies to the
// application atoms whose subject and target hold the same tag
// multisets, in any order, and to no other — not to an expression whose
// text renders alike (Expr{"a&b"} and Expr{"a", "b"} both print a&b).
func TestResolveConflictsKeysByStructure(t *testing.T) {
	app := func(subj, tgt Expr) Entry {
		return Entry{AppID: "app", Source: SourceApplication, Constraint: New(MaxCardinality(subj, tgt, 5, Rack))}
	}
	op := func(subj, tgt Expr, max int) Entry {
		return Entry{Source: SourceOperator, Constraint: New(MaxCardinality(subj, tgt, max, Rack))}
	}
	cases := []struct {
		name    string
		entries []Entry
		want    int // the application's cmax after resolution
	}{
		{"same tags, other order", []Entry{app(E("a", "b"), E("c")), op(E("b", "a"), E("c"), 3)}, 3},
		{"text alias in the subject", []Entry{app(E("a", "b"), E("c")), op(E("a&b"), E("c"), 3)}, 5},
		{"text alias in the target", []Entry{app(E("c"), E("a&b")), op(E("c"), E("b", "a"), 3)}, 5},
		{"repeated tag", []Entry{app(E("a", "a"), E("c")), op(E("a"), E("c"), 3)}, 5},
		{"tightest of two", []Entry{op(E("a", "b"), E("c"), 4), app(E("b", "a"), E("c")), op(E("b", "a"), E("c"), 2)}, 2},
	}
	for _, c := range cases {
		out := ResolveConflicts(c.entries)
		for _, e := range out {
			if e.Source != SourceApplication {
				continue
			}
			if a, _ := e.Constraint.Simple(); a.Max != c.want {
				t.Errorf("%s: application cmax = %d, want %d", c.name, a.Max, c.want)
			}
		}
	}

	// Many operator triples: each application atom meets only its own.
	var entries []Entry
	for i := 0; i < 300; i++ {
		tag := Tag(fmt.Sprint("t", i))
		entries = append(entries, op(E(tag, "x"), E(tag), i%4), app(E("x", tag), E(tag)))
	}
	for i, e := range ResolveConflicts(entries) {
		if e.Source != SourceApplication {
			continue
		}
		if a, _ := e.Constraint.Simple(); a.Max != (i/2)%4 {
			t.Fatalf("entry %d: cmax = %d, want %d", i, a.Max, (i/2)%4)
		}
	}
}

// TestManagerConcurrency hammers every Manager method from concurrent
// goroutines. It asserts nothing beyond internal consistency of the
// final state — its real job is to run under `go test -race` and prove
// the RWMutex discipline covers all public entry points, since the
// parallel placement pipeline reads Active/Application while the
// submission path mutates the registry.
func TestManagerConcurrency(t *testing.T) {
	m := NewManager()
	const writers = 8
	const perWriter = 50

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := appID(w, i)
				if err := m.AddApplication(id, New(Affinity(E("a"), E("b"), Node))); err != nil {
					t.Errorf("AddApplication(%s): %v", id, err)
					return
				}
				if i%3 == 0 {
					m.RemoveApplication(id)
				}
				if i%7 == 0 {
					if err := m.AddOperator(New(AntiAffinity(E("x"), E("x"), Node))); err != nil {
						t.Errorf("AddOperator: %v", err)
						return
					}
				}
			}
		}()
	}
	// Concurrent readers exercise the RLock paths while writers mutate.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				_ = m.Active()
				_ = m.Apps()
				_ = m.Len()
				_ = m.Operator()
			}
		}()
	}
	wg.Wait()

	// Every writer kept the apps with i%3 != 0; the rest were removed.
	// Each kept app carries one constraint, and every i%7 == 0 iteration
	// added one operator constraint; Len() counts both kinds.
	kept, wantOps := 0, 0
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			if i%3 != 0 {
				kept++
			}
			if i%7 == 0 {
				wantOps++
			}
		}
	}
	if got := m.Len(); got != kept+wantOps {
		t.Errorf("Len() = %d after concurrent add/remove, want %d", got, kept+wantOps)
	}
	if got := len(m.Apps()); got != kept {
		t.Errorf("len(Apps()) = %d, want %d", got, kept)
	}
	ops := 0
	for _, e := range m.Active() {
		if e.Source == SourceOperator {
			ops++
		}
	}
	if ops != wantOps {
		t.Errorf("operator entries = %d, want %d", ops, wantOps)
	}
}

func appID(w, i int) string {
	return "app-" + string(rune('a'+w)) + "-" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}
