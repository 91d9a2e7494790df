package constraint

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// oraclePool is the tag alphabet of TestSetMatchesOracle. The NUL-bearing
// tags are the ones a joined-string vector key would confuse with pairs
// of plain tags ("a\x00b" with {"a", "b"}).
var oraclePool = []Tag{"a", "b", "c", "a\x00b", "b\x00", "\x00"}

// refSet is the brute-force reference for Set: the tag vector of every
// container, in the order added.
type refSet [][]Tag

// sameMultiset compares two vectors by sorting copies, independently of
// SameVector.
func sameMultiset(a, b []Tag) bool {
	x, y := slices.Clone(a), slices.Clone(b)
	slices.Sort(x)
	slices.Sort(y)
	return slices.Equal(x, y)
}

func (r refSet) indexOf(tags []Tag) int {
	return slices.IndexFunc(r, func(v []Tag) bool { return sameMultiset(v, tags) })
}

func (r refSet) countBoth(a, b Expr) int {
	n := 0
	for _, v := range r {
		if a.Matches(v) && b.Matches(v) {
			n++
		}
	}
	return n
}

func (r refSet) tags() []Tag {
	var out []Tag
	for _, v := range r {
		for _, t := range v {
			if !slices.Contains(out, t) {
				out = append(out, t)
			}
		}
	}
	slices.Sort(out)
	return out
}

// oracleExprs returns every conjunction of up to three pool tags.
func oracleExprs() []Expr {
	out := []Expr{nil}
	for i := range oraclePool {
		out = append(out, E(oraclePool[i]))
		for j := i + 1; j < len(oraclePool); j++ {
			out = append(out, E(oraclePool[i], oraclePool[j]))
			for k := j + 1; k < len(oraclePool); k++ {
				out = append(out, E(oraclePool[i], oraclePool[j], oraclePool[k]))
			}
		}
	}
	return out
}

// randomVector draws 0–4 pool tags with replacement, so vectors may be
// empty or repeat a tag.
func randomVector(rng *rand.Rand) []Tag {
	v := make([]Tag, rng.Intn(5))
	for i := range v {
		v[i] = oraclePool[rng.Intn(len(oraclePool))]
	}
	return v
}

// nearMiss returns v with one occurrence of a tag added, dropped or
// overwritten by another of v's tags: often the same set of tags as v,
// never knowingly the same multiset.
func nearMiss(rng *rand.Rand, v []Tag) []Tag {
	w := slices.Clone(v)
	if len(w) == 0 {
		return []Tag{oraclePool[rng.Intn(len(oraclePool))]}
	}
	switch rng.Intn(3) {
	case 0:
		return append(w, w[rng.Intn(len(w))])
	case 1:
		k := rng.Intn(len(w))
		return slices.Delete(w, k, k+1)
	default:
		w[rng.Intn(len(w))] = w[rng.Intn(len(w))]
		return w
	}
}

func permuted(rng *rand.Rand, v []Tag) []Tag {
	w := slices.Clone(v)
	rng.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
	return w
}

// removePanics reports whether s.removeContainer(tags) panicked.
func removePanics(s *Set, tags []Tag) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	s.removeContainer(tags)
	return false
}

// checkAgainst compares every query of s with the reference.
func checkAgainst(t *testing.T, s *Set, r refSet, exprs []Expr, rng *rand.Rand) {
	t.Helper()
	for _, tag := range append(oraclePool, "absent") {
		if got, want := s.Count(tag), r.countBoth(E(tag), nil); got != want {
			t.Fatalf("Count(%q) = %d, want %d; set %v", tag, got, want, s)
		}
	}
	for _, e := range exprs {
		if got, want := s.CountExpr(e), r.countBoth(e, nil); got != want {
			t.Fatalf("CountExpr(%q) = %d, want %d; set %v", e, got, want, s)
		}
	}
	// The one-scan triple against three separate reference counts.
	for i := 0; i < 20; i++ {
		subj, tgt := exprs[rng.Intn(len(exprs))], exprs[rng.Intn(len(exprs))]
		nTgt, nSubj, nBoth := s.CountAtom(subj, tgt)
		if want := [3]int{r.countBoth(tgt, nil), r.countBoth(subj, nil), r.countBoth(subj, tgt)}; [3]int{nTgt, nSubj, nBoth} != want {
			t.Fatalf("CountAtom(%q, %q) = %d, %d, %d, want %d; set %v", subj, tgt, nTgt, nSubj, nBoth, want, s)
		}
	}
	if got, want := s.Tags(), r.tags(); !slices.Equal(got, want) && len(got)+len(want) > 0 {
		t.Fatalf("Tags() = %q, want %q", got, want)
	}
}

// TestSetMatchesOracle runs seeded random sequences of AddContainer,
// RemoveContainer (of present vectors, permuted, and of near misses that
// must panic), Clone and Merge over a pool of live sets, and
// after every step compares every live set with its brute-force
// reference. Each set is checked after its clones, sources and merge
// partners were mutated, so a write through shared storage shows.
func TestSetMatchesOracle(t *testing.T) {
	exprs := oracleExprs()
	runSetSequences(t, func(t *testing.T, s *Set, r refSet, rng *rand.Rand) { checkAgainst(t, s, r, exprs, rng) })
}

// TestSetVectorHashes: every vector a set lists (EachVector) comes with
// its VectorHash, computed when its entry was made, after every step of
// TestSetMatchesOracle's random sequences of AddContainer,
// RemoveContainer, Clone and Merge: a scheduler finds a vector's compiled
// form by that hash.
func TestSetVectorHashes(t *testing.T) {
	vectors := 0
	runSetSequences(t, func(t *testing.T, s *Set, _ refSet, _ *rand.Rand) {
		s.EachVector(func(tags []Tag, hash uint64, _ int) {
			if want := VectorHash(tags); hash != want {
				t.Fatalf("vector %q listed with hash %#x, VectorHash %#x; set %v", tags, hash, want, s)
			}
			vectors++
		})
	})
	t.Logf("%d vectors checked", vectors)
}

// runSetSequences runs twenty seeded random sequences of 200 steps of
// AddContainer, RemoveContainer (of present vectors, permuted, and of
// near misses that must panic), Clone and Merge over a pool of live
// sets, and calls check with every live set and its brute-force
// reference after every step.
func runSetSequences(t *testing.T, check func(t *testing.T, s *Set, r refSet, rng *rand.Rand)) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			sets := []*Set{{}}
			refs := []refSet{nil}
			for step := 0; step < 200; step++ {
				i := rng.Intn(len(sets))
				s, r := sets[i], refs[i]
				op := rng.Intn(10)
				if len(r) > 24 {
					op = 4 // Merge doubles sets; keep them small enough to check fully
				}
				switch {
				case op < 4 || len(r) == 0:
					v := randomVector(rng)
					s.addContainer(v)
					refs[i] = append(r, slices.Clone(v))
					for k := range v {
						v[k] = "reused" // the caller may reuse its slice
					}
				case op < 6:
					k := rng.Intn(len(r))
					s.removeContainer(permuted(rng, r[k]))
					refs[i] = slices.Delete(slices.Clone(r), k, k+1)
				case op < 7:
					miss := nearMiss(rng, r[rng.Intn(len(r))])
					if k := r.indexOf(miss); k >= 0 {
						s.removeContainer(miss)
						refs[i] = slices.Delete(slices.Clone(r), k, k+1)
					} else if !removePanics(s, miss) {
						t.Fatalf("step %d: RemoveContainer(%q) of an absent vector did not panic", step, miss)
					}
				case op < 9:
					sets = append(sets, s.Clone())
					refs = append(refs, slices.Clone(r))
				default:
					j := rng.Intn(len(sets))
					if j == i {
						continue
					}
					s.Merge(sets[j])
					refs[i] = append(slices.Clone(r), refs[j]...)
				}
				if len(sets) > 6 {
					sets, refs = sets[len(sets)-3:], refs[len(refs)-3:]
				}
				for k := range sets {
					check(t, sets[k], refs[k], rng)
				}
			}
		})
	}
}

// TestSetNULTagsDoNotAlias: a container tagged "a\x00b" and one tagged
// {a, b} are different vectors, in either order of arrival.
func TestSetNULTagsDoNotAlias(t *testing.T) {
	for _, order := range [][][]Tag{{{"a\x00b"}, {"a", "b"}}, {{"a", "b"}, {"a\x00b"}}} {
		s := NewSet()
		for _, v := range order {
			s.addContainer(v)
		}
		if got := s.CountExpr(E("a", "b")); got != 1 {
			t.Errorf("adding %q: γ(a∧b) = %d, want 1", order, got)
		}
		if got := s.Count("a\x00b"); got != 1 {
			t.Errorf("adding %q: γ(a\\x00b) = %d, want 1", order, got)
		}
		s.removeContainer(order[0])
		if got, want := s.CountExpr(E("a", "b")), len(order[1])-1; got != want {
			t.Errorf("after removing %q: γ(a∧b) = %d, want %d", order[0], got, want)
		}
	}
}

func TestSameVector(t *testing.T) {
	cases := []struct {
		a, b []Tag
		want bool
	}{
		{nil, []Tag{}, true},
		{[]Tag{"a", "b"}, []Tag{"b", "a"}, true},
		{[]Tag{"a", "a", "b"}, []Tag{"a", "b", "a"}, true},
		{[]Tag{"a", "a", "b"}, []Tag{"a", "b", "b"}, false},
		{[]Tag{"a", "b"}, []Tag{"a", "b", "b"}, false},
		{[]Tag{"a\x00b"}, []Tag{"a", "b"}, false},
		{[]Tag{"a\x00b", "c"}, []Tag{"a", "b\x00c"}, false},
	}
	for _, c := range cases {
		if got := SameVector(c.a, c.b); got != c.want {
			t.Errorf("SameVector(%q, %q) = %v, want %v", c.a, c.b, got, c.want)
		}
		if got := SameVector(c.b, c.a); got != c.want {
			t.Errorf("SameVector(%q, %q) = %v, want %v", c.b, c.a, got, c.want)
		}
	}
}
