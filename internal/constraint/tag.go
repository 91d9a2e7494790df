// Package constraint implements Medea's placement-constraint model (§4 of
// the paper): container tags, node groups, the generic constraint type
// C = {subject_tag, tag_constraint, node_group}, compound constraints in
// disjunctive normal form, soft weights, a text parser, and the central
// constraint manager.
package constraint

import (
	"fmt"
	"maps"
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
func AppIDTag(appID string) Tag { return Tag("appID:" + appID) }

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
type Set struct {
	counts  map[Tag]int
	vectors map[string]vecEntry // canonical tag-vector -> count
}

type vecEntry struct {
	tags  []Tag
	count int
}

// NewSet returns an empty tag multiset.
func NewSet() *Set {
	return &Set{counts: make(map[Tag]int), vectors: make(map[string]vecEntry)}
}

func canonical(tags []Tag) string {
	ss := make([]string, len(tags))
	for i, t := range tags {
		ss[i] = string(t)
	}
	sort.Strings(ss)
	return strings.Join(ss, "\x00")
}

// AddContainer records one container carrying the given tags. Tags of a
// container are added when it is allocated on a node (§4.1).
func (s *Set) AddContainer(tags []Tag) {
	if s.counts == nil {
		s.counts = make(map[Tag]int)
		s.vectors = make(map[string]vecEntry)
	}
	seen := make(map[Tag]bool, len(tags))
	for _, t := range tags {
		if !seen[t] {
			// γ counts containers per tag, so duplicate tags within one
			// container count once.
			s.counts[t]++
			seen[t] = true
		}
	}
	key := canonical(tags)
	e := s.vectors[key]
	if e.tags == nil {
		e.tags = append([]Tag(nil), tags...)
	}
	e.count++
	s.vectors[key] = e
}

// RemoveContainer undoes AddContainer; tags are removed when the container
// finishes execution (§4.1). Removing a container that was never added is
// a programming error and panics.
func (s *Set) RemoveContainer(tags []Tag) {
	key := canonical(tags)
	e, ok := s.vectors[key]
	if !ok || e.count == 0 {
		panic(fmt.Sprintf("constraint: RemoveContainer of absent container %v", tags))
	}
	e.count--
	if e.count == 0 {
		delete(s.vectors, key)
	} else {
		s.vectors[key] = e
	}
	seen := make(map[Tag]bool, len(tags))
	for _, t := range tags {
		if seen[t] {
			continue
		}
		seen[t] = true
		s.counts[t]--
		if s.counts[t] == 0 {
			delete(s.counts, t)
		}
	}
}

// Count returns γ(t): the number of containers carrying tag t.
func (s *Set) Count(t Tag) int {
	if s.counts == nil {
		return 0
	}
	return s.counts[t]
}

// CountExpr returns γ(e): the number of containers whose tag vector
// matches the whole conjunction e.
func (s *Set) CountExpr(e Expr) int {
	if len(e) == 1 {
		return s.Count(e[0])
	}
	return s.CountBoth(e, nil)
}

// CountBoth returns γ(a ∧ b): the number of containers whose tag vector
// matches both conjunctions, without materialising the joined Expr.
func (s *Set) CountBoth(a, b Expr) int {
	// A tag no container carries rules out every vector without a scan.
	for _, t := range a {
		if s.counts[t] == 0 {
			return 0
		}
	}
	for _, t := range b {
		if s.counts[t] == 0 {
			return 0
		}
	}
	n := 0
	for _, entry := range s.vectors {
		if a.Matches(entry.tags) && b.Matches(entry.tags) {
			n += entry.count
		}
	}
	return n
}

// Containers returns the total number of containers recorded.
func (s *Set) Containers() int {
	n := 0
	for _, e := range s.vectors {
		n += e.count
	}
	return n
}

// Tags returns the distinct tags present, sorted.
func (s *Set) Tags() []Tag {
	out := make([]Tag, 0, len(s.counts))
	for t := range s.counts {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Merge adds every container of o into s (used to build the tag set 𝒯𝒮 of
// a node set as the union of its nodes' tag sets).
func (s *Set) Merge(o *Set) {
	for _, e := range o.vectors {
		for i := 0; i < e.count; i++ {
			s.AddContainer(e.tags)
		}
	}
}

// Clone returns a deep copy of s: both maps are copied directly. The tag
// slices inside the vector entries are shared — they are written once, in
// AddContainer, and never mutated afterwards.
func (s *Set) Clone() *Set {
	return &Set{counts: maps.Clone(s.counts), vectors: maps.Clone(s.vectors)}
}

// String renders the multiset as "{hb:2, hb_m:1}".
func (s *Set) String() string {
	tags := s.Tags()
	parts := make([]string, len(tags))
	for i, t := range tags {
		parts[i] = fmt.Sprintf("%s:%d", t, s.counts[t])
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
