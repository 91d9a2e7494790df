package constraint

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestExprMatches(t *testing.T) {
	e := E("hb", "mem")
	if !e.Matches([]Tag{"hb", "mem", "extra"}) {
		t.Error("conjunction should match superset")
	}
	if e.Matches([]Tag{"hb"}) {
		t.Error("conjunction should not match subset")
	}
	if !(Expr(nil)).Matches([]Tag{"anything"}) {
		t.Error("empty expr matches everything")
	}
	if !(Expr(nil)).Matches(nil) {
		t.Error("empty expr matches empty tags")
	}
}

func TestExprEqual(t *testing.T) {
	if !E("a", "b").Equal(E("b", "a")) {
		t.Error("Equal should ignore order")
	}
	if !E("a", "a", "b").Equal(E("b", "a")) {
		t.Error("Equal should ignore duplicates")
	}
	if E("a").Equal(E("a", "b")) {
		t.Error("different conjunctions should differ")
	}
}

func TestExprString(t *testing.T) {
	if got := E("mem", "hb").String(); got != "hb&mem" {
		t.Errorf("String = %q, want hb&mem", got)
	}
	if got := (Expr{}).String(); got != "*" {
		t.Errorf("empty expr String = %q, want *", got)
	}
}

// TestSetPaperExample replays the §4.1 worked example: two HBase containers
// on node n1 — a master {hb, hb_m} and a region server {hb, hb_rs} — give
// 𝒯n1={hb, hb_m, hb_rs} with γ(hb)=2 and γ(hb_m)=γ(hb_rs)=1.
func TestSetPaperExample(t *testing.T) {
	s := NewSet()
	s.addContainer([]Tag{"hb", "hb_m"})
	s.addContainer([]Tag{"hb", "hb_rs"})
	if got := s.Count("hb"); got != 2 {
		t.Errorf("γ(hb) = %d, want 2", got)
	}
	if got := s.Count("hb_m"); got != 1 {
		t.Errorf("γ(hb_m) = %d, want 1", got)
	}
	if got := s.Count("hb_rs"); got != 1 {
		t.Errorf("γ(hb_rs) = %d, want 1", got)
	}
	if got := s.CountExpr(nil); got != 2 {
		t.Errorf("Containers = %d, want 2", got)
	}
}

// TestSetRackMerge replays the rack example: n1 as above plus n2 with one
// region server gives γr1(hb)=3, γr1(hb_m)=1, γr1(hb_rs)=2.
func TestSetRackMerge(t *testing.T) {
	n1 := NewSet()
	n1.addContainer([]Tag{"hb", "hb_m"})
	n1.addContainer([]Tag{"hb", "hb_rs"})
	n2 := NewSet()
	n2.addContainer([]Tag{"hb", "hb_rs"})
	rack := NewSet()
	rack.Merge(n1)
	rack.Merge(n2)
	if got := rack.Count("hb"); got != 3 {
		t.Errorf("γr1(hb) = %d, want 3", got)
	}
	if got := rack.Count("hb_m"); got != 1 {
		t.Errorf("γr1(hb_m) = %d, want 1", got)
	}
	if got := rack.Count("hb_rs"); got != 2 {
		t.Errorf("γr1(hb_rs) = %d, want 2", got)
	}
}

func TestSetRemove(t *testing.T) {
	s := NewSet()
	s.addContainer([]Tag{"a", "b"})
	s.addContainer([]Tag{"a"})
	s.removeContainer([]Tag{"a", "b"})
	if got := s.Count("a"); got != 1 {
		t.Errorf("γ(a) = %d after remove, want 1", got)
	}
	if got := s.Count("b"); got != 0 {
		t.Errorf("γ(b) = %d after remove, want 0", got)
	}
	s.removeContainer([]Tag{"a"})
	if got := s.CountExpr(nil); got != 0 {
		t.Errorf("Containers = %d after all removes, want 0", got)
	}
}

func TestSetRemoveAbsentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("RemoveContainer of absent container should panic")
		}
	}()
	NewSet().removeContainer([]Tag{"ghost"})
}

func TestSetDuplicateTagsCountOnce(t *testing.T) {
	s := NewSet()
	s.addContainer([]Tag{"x", "x", "x"})
	if got := s.Count("x"); got != 1 {
		t.Errorf("γ(x) = %d, want 1 (duplicates within a container count once)", got)
	}
	s.removeContainer([]Tag{"x", "x", "x"})
	if got := s.Count("x"); got != 0 {
		t.Errorf("γ(x) = %d after remove, want 0", got)
	}
}

// TestCountExprConjunction verifies that γ of a conjunction counts
// containers matching all tags, not the min over single-tag counts.
func TestCountExprConjunction(t *testing.T) {
	s := NewSet()
	s.addContainer([]Tag{"hb", "mem"})
	s.addContainer([]Tag{"hb"})
	s.addContainer([]Tag{"mem"})
	if got := s.CountExpr(E("hb", "mem")); got != 1 {
		t.Errorf("γ(hb&mem) = %d, want 1", got)
	}
	if got := s.CountExpr(E("hb")); got != 2 {
		t.Errorf("γ(hb) = %d, want 2", got)
	}
	if got := s.CountExpr(E("absent")); got != 0 {
		t.Errorf("γ(absent) = %d, want 0", got)
	}
}

func TestSetClone(t *testing.T) {
	s := NewSet()
	s.addContainer([]Tag{"a"})
	c := s.Clone()
	c.addContainer([]Tag{"a"})
	if s.Count("a") != 1 || c.Count("a") != 2 {
		t.Errorf("clone not independent: orig=%d clone=%d", s.Count("a"), c.Count("a"))
	}
}

// TestSetEqual: Equal compares the multisets of tag vectors, not the
// order they were added in, and tells apart sets whose per-tag counts
// agree but whose vectors do not.
func TestSetEqual(t *testing.T) {
	build := func(vectors ...[]Tag) *Set {
		s := NewSet()
		for _, v := range vectors {
			s.addContainer(v)
		}
		return s
	}
	ab, c := []Tag{"a", "b"}, []Tag{"c"}
	s := build(ab, c, ab)
	for _, tc := range []struct {
		name string
		o    *Set
		want bool
	}{
		{"clone", s.Clone(), true},
		{"other order", build(c, ab, ab), true},
		{"vector tags in other order", build([]Tag{"b", "a"}, []Tag{"b", "a"}, c), true},
		{"one count differs", build(ab, c), false},
		{"same tag counts, other vectors", build([]Tag{"a", "c"}, []Tag{"b"}, ab), false},
		{"empty", NewSet(), false},
	} {
		if got := s.Equal(tc.o); got != tc.want {
			t.Errorf("%s: Equal = %v, want %v", tc.name, got, tc.want)
		}
		if got := tc.o.Equal(s); got != tc.want {
			t.Errorf("%s, reversed: Equal = %v, want %v", tc.name, got, tc.want)
		}
	}
	added := s.Clone()
	added.addContainer([]Tag{"d"})
	added.removeContainer([]Tag{"d"})
	if !added.Equal(s) {
		t.Error("adding and removing a container changed the multiset")
	}
}

// Property: adding then removing a random batch of containers restores the
// empty multiset.
func TestSetAddRemoveInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(n uint8) bool {
		s := NewSet()
		var batch [][]Tag
		for i := 0; i < int(n%32); i++ {
			tags := []Tag{Tag([]byte{'a' + byte(rng.Intn(5))})}
			if rng.Intn(2) == 0 {
				tags = append(tags, Tag([]byte{'f' + byte(rng.Intn(5))}))
			}
			batch = append(batch, tags)
			s.addContainer(tags)
		}
		for _, tags := range batch {
			s.removeContainer(tags)
		}
		return s.CountExpr(nil) == 0 && len(s.Tags()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestAppIDTag(t *testing.T) {
	if got := AppIDTag("0023"); got != "appID:0023" {
		t.Errorf("AppIDTag = %q", got)
	}
}
