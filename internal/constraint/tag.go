// Package constraint implements Medea's placement-constraint model (§4 of
// the paper): container tags, node groups, the generic constraint type
// C = {subject_tag, tag_constraint, node_group}, compound constraints in
// disjunctive normal form, soft weights, a text parser, and the central
// constraint manager.
package constraint

import (
	"fmt"
	"hash/maphash"
	"slices"
	"sort"
	"strings"
)

// Tag is a label attached to a container (§4.1). Tags may be namespaced
// with a colon, e.g. "appID:00234". Tags are a simple yet powerful
// mechanism for constraints to refer to containers of the same or
// different, possibly not-yet-deployed, applications.
type Tag string

// AppIDTag returns the predefined namespaced tag identifying an LRA, as
// automatically attached to every container (footnote 5 of the paper).
func AppIDTag(appID string) Tag { return Tag(appIDPrefix + appID) }

// AppendAppIDTag appends the text of AppIDTag(appID) to dst, for lookups
// that spell the tag in a reused buffer.
func AppendAppIDTag(dst []byte, appID string) []byte {
	return append(append(dst, appIDPrefix...), appID...)
}

const appIDPrefix = "appID:"

// Expr is a conjunction of tags: a container matches an Expr when its tag
// set contains every tag in the Expr. The paper writes these as
// "hb ∧ mem". A nil or empty Expr matches every container.
type Expr []Tag

// E builds an Expr from tags; convenient in literals: E("hb", "mem").
func E(tags ...Tag) Expr { return Expr(tags) }

// Matches reports whether a container carrying tags matches the
// conjunction e.
func (e Expr) Matches(tags []Tag) bool {
	for _, want := range e {
		found := false
		for _, have := range tags {
			if have == want {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Contains reports whether e includes tag t.
func (e Expr) Contains(t Tag) bool {
	for _, x := range e {
		if x == t {
			return true
		}
	}
	return false
}

// Equal reports whether two Exprs denote the same conjunction,
// irrespective of order or duplicates.
func (e Expr) Equal(o Expr) bool {
	for _, t := range e {
		if !o.Contains(t) {
			return false
		}
	}
	for _, t := range o {
		if !e.Contains(t) {
			return false
		}
	}
	return true
}

// String renders "hb&mem" (canonically sorted).
func (e Expr) String() string {
	switch len(e) {
	case 0:
		return "*"
	case 1:
		return string(e[0])
	}
	ss := make([]string, len(e))
	for i, t := range e {
		ss[i] = string(t)
	}
	sort.Strings(ss)
	return strings.Join(ss, "&")
}

// Set is a tag multiset with per-tag cardinalities: the paper's node tag
// set 𝒯n together with its tag cardinality function γn (§4.1). The zero
// value is an empty set ready to use. Set additionally tracks, per
// distinct container tag-vector, how many containers carry it, so that
// conjunction cardinalities (γ over an Expr) are exact rather than a
// min-over-tags approximation.
//
// Both halves are slices searched linearly. A node holds a handful of
// distinct tags and tag vectors, a rack at most a few dozen tags and a
// hundred-odd vectors (DESIGN §17 measures them); γ over a conjunction
// visits every vector in either layout, and Clone is two memmoves.
//
// A Set answers γ queries and lists its distinct vectors (EachVector);
// it keeps no per-query index. Each vector's entry keeps its VectorHash,
// which the caller that adds or removes the vector hands in: a lookup
// compares hashes before it compares vectors, and EachVector hands the
// hash out with the vector. What stays fixed while a scheduler prices a
// batch — which atoms each container tag vector is the subject or a
// target of — is compiled on the scheduler's side (lra's plan, through
// an index of the constraint list, once per distinct vector, found by
// that hash), and an atom's
// three γ in one set come from one scan (CountAtom). A node's Set is
// also how the violators of a state are found (a Place's score pass,
// lra.Evaluate, the audit's hard check): a container's violation depends
// on its node and its vector alone, so each (node, vector) pair is
// priced once, with the count of containers carrying it.
type Set struct {
	counts  []tagCount
	vectors []vecEntry
}

type tagCount struct {
	tag   Tag
	count int
}

// vecEntry is one distinct tag vector, its VectorHash and how many
// containers carry it. tags and hash are written once, when the entry is
// created, and never mutated afterwards, so clones share them.
type vecEntry struct {
	tags  []Tag
	hash  uint64
	count int
}

// NewSet returns an empty tag multiset.
func NewSet() *Set { return &Set{} }

// SameVector reports whether two tag vectors are equal as multisets:
// the same tags, each the same number of times, in any order. It is the
// identity of a container's tag vector throughout Medea.
func SameVector(a, b []Tag) bool {
	if len(a) != len(b) {
		return false
	}
	if slices.Equal(a, b) {
		return true
	}
	for i, t := range a {
		if slices.Contains(a[:i], t) {
			continue // this tag's multiplicity was compared at its first occurrence
		}
		if occurrences(a, t) != occurrences(b, t) {
			return false
		}
	}
	return true
}

func occurrences(tags []Tag, t Tag) int {
	n := 0
	for _, x := range tags {
		if x == t {
			n++
		}
	}
	return n
}

// vectorSeed keys VectorHash. It changes between processes, which moves
// no output: a hash only nominates the vectors a caller then compares
// with SameVector.
var vectorSeed = maphash.MakeSeed()

// VectorHash hashes a tag vector as a multiset, so vectors SameVector
// calls equal hash alike: the tags' hashes are summed, and their order
// does not count while their multiplicity does.
func VectorHash(tags []Tag) uint64 {
	var sum uint64
	for _, t := range tags {
		sum += maphash.String(vectorSeed, string(t))
	}
	return sum
}

// vector returns the index of the entry of tags, whose VectorHash is h,
// in s.vectors, or -1. Only an entry with the same hash can hold the
// vector, so SameVector runs on those alone.
func (s *Set) vector(tags []Tag, h uint64) int {
	for i := range s.vectors {
		if s.vectors[i].hash == h && SameVector(s.vectors[i].tags, tags) {
			return i
		}
	}
	return -1
}

// tag returns the index of t's entry in s.counts, or -1.
func (s *Set) tag(t Tag) int {
	for i := range s.counts {
		if s.counts[i].tag == t {
			return i
		}
	}
	return -1
}

// AddContainer records one container carrying the given tags, whose
// VectorHash is hash: a caller adding one container to several sets
// hashes its tags once. Tags of a container are added when it is
// allocated on a node (§4.1).
func (s *Set) AddContainer(tags []Tag, hash uint64) {
	s.add(tags, hash, 1)
}

// add records n containers carrying tags, whose VectorHash is h.
func (s *Set) add(tags []Tag, h uint64, n int) {
	for i, t := range tags {
		// γ counts containers per tag, so duplicate tags within one
		// container count once.
		if slices.Contains(tags[:i], t) {
			continue
		}
		if j := s.tag(t); j >= 0 {
			s.counts[j].count += n
		} else {
			s.counts = append(s.counts, tagCount{t, n})
		}
	}
	if i := s.vector(tags, h); i >= 0 {
		s.vectors[i].count += n
		return
	}
	s.vectors = append(s.vectors, vecEntry{slices.Clone(tags), h, n})
}

// RemoveContainer undoes AddContainer; tags are removed when the container
// finishes execution (§4.1). hash is VectorHash(tags). Removing a
// container that was never added is a programming error and panics.
func (s *Set) RemoveContainer(tags []Tag, hash uint64) {
	i := s.vector(tags, hash)
	if i < 0 {
		panic(fmt.Sprintf("constraint: RemoveContainer of absent container %v", tags))
	}
	if s.vectors[i].count--; s.vectors[i].count == 0 {
		s.vectors = slices.Delete(s.vectors, i, i+1)
	}
	for k, t := range tags {
		if slices.Contains(tags[:k], t) {
			continue
		}
		j := s.tag(t)
		if s.counts[j].count--; s.counts[j].count == 0 {
			s.counts = slices.Delete(s.counts, j, j+1)
		}
	}
}

// Count returns γ(t): the number of containers carrying tag t.
func (s *Set) Count(t Tag) int {
	if j := s.tag(t); j >= 0 {
		return s.counts[j].count
	}
	return 0
}

// CountExpr returns γ(e): the number of containers whose tag vector
// matches the whole conjunction e.
func (s *Set) CountExpr(e Expr) int {
	if len(e) == 1 {
		return s.Count(e[0])
	}
	// A tag no container carries rules out every vector without a scan.
	for _, t := range e {
		if s.tag(t) < 0 {
			return 0
		}
	}
	n := 0
	for _, entry := range s.vectors {
		if e.Matches(entry.tags) {
			n += entry.count
		}
	}
	return n
}

// CountAtom returns the three γ an atom with the given subject and
// target reads in this set — γ(target), γ(subject) and
// γ(subject ∧ target) — in one scan of the vectors.
func (s *Set) CountAtom(subject, target Expr) (nTarget, nSubject, nBoth int) {
	for _, entry := range s.vectors {
		inSubj := subject.Matches(entry.tags)
		inTgt := target.Matches(entry.tags)
		if inTgt {
			nTarget += entry.count
		}
		if inSubj {
			nSubject += entry.count
			if inTgt {
				nBoth += entry.count
			}
		}
	}
	return nTarget, nSubject, nBoth
}

// EachVector calls fn with each distinct tag vector of the set, its
// VectorHash and how many containers carry it, once, in no particular
// order. The slices are the set's own (written once, never mutated): fn
// must not modify them.
func (s *Set) EachVector(fn func(tags []Tag, hash uint64, count int)) {
	for _, e := range s.vectors {
		fn(e.tags, e.hash, e.count)
	}
}

// Tags returns the distinct tags present, sorted.
func (s *Set) Tags() []Tag {
	out := make([]Tag, len(s.counts))
	for i, c := range s.counts {
		out[i] = c.tag
	}
	slices.Sort(out)
	return out
}

// Merge adds every container of o into s (used to build the tag set 𝒯𝒮 of
// a node set as the union of its nodes' tag sets).
func (s *Set) Merge(o *Set) {
	for _, e := range o.vectors {
		s.add(e.tags, e.hash, e.count)
	}
}

// Clone returns a deep copy of s: both slices are copied directly. The
// tag slices inside the vector entries are shared — they are written
// once, when their entry is created, and never mutated afterwards.
func (s *Set) Clone() *Set {
	return &Set{counts: slices.Clone(s.counts), vectors: slices.Clone(s.vectors)}
}

// Equal reports whether s and o hold the same multiset of tag vectors,
// so that every γ reads the same on both, in whatever order they keep
// the vectors.
func (s *Set) Equal(o *Set) bool {
	if len(s.counts) != len(o.counts) || len(s.vectors) != len(o.vectors) {
		return false
	}
	for _, e := range s.vectors {
		if i := o.vector(e.tags, e.hash); i < 0 || o.vectors[i].count != e.count {
			return false
		}
	}
	return true
}

// String renders the multiset as "{hb:2, hb_m:1}".
func (s *Set) String() string {
	tags := s.Tags()
	parts := make([]string, len(tags))
	for i, t := range tags {
		parts[i] = fmt.Sprintf("%s:%d", t, s.Count(t))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
