package lra

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/resource"
)

// The per-call forms the compiled kernels of plan.go replaced, kept as
// their oracles: they match every atom of the whole constraint list
// against the container's tags on every call, and read each γ with a
// query of its own.

// or returns the disjunction of the given conjunctive terms, weight 1.
func or(terms ...[]constraint.Atom) constraint.Constraint {
	return constraint.Constraint{Terms: terms, Weight: 1}
}

// atomsOf returns every atom of c, term by term.
func atomsOf(c constraint.Constraint) []constraint.Atom {
	var out []constraint.Atom
	for _, t := range c.Terms {
		out = append(out, t...)
	}
	return out
}

// constraintExtent evaluates a (possibly compound, DNF) constraint for a
// subject container with the given tags on node. A term applies to the
// container when the container matches the subject of at least one of its
// atoms; non-matching atoms within a term are skipped. The constraint's
// extent is the minimum over applicable terms of the summed atom extents
// (the DNF is satisfied when any term is). The second result reports
// whether the constraint applies to this container at all.
func constraintExtent(state *cluster.Cluster, c constraint.Constraint, node cluster.NodeID, tags []constraint.Tag) (float64, bool) {
	applies := false
	best := -1.0
	for _, term := range c.Terms {
		termApplies := false
		sum := 0.0
		for _, a := range term {
			if !a.Subject.Matches(tags) {
				continue
			}
			termApplies = true
			sum += subjectExtent(state, &a, state.SetsOfNode(a.Group, node), a.Target.Matches(tags))
		}
		if !termApplies {
			continue
		}
		applies = true
		if best < 0 || sum < best {
			best = sum
		}
	}
	if !applies {
		return 0, false
	}
	return best, true
}

// scanExtents is vecAtoms.appendExtents by a scan of every entry.
func scanExtents(dst []float64, state *cluster.Cluster, cons []constraint.Entry, node cluster.NodeID, tags []constraint.Tag) ([]float64, int) {
	applied := 0
	for _, e := range cons {
		ext, applies := constraintExtent(state, e.Constraint, node, tags)
		if !applies {
			continue
		}
		applied++
		if ext > 0 {
			dst = append(dst, float64(ext*e.Constraint.EffectiveWeight()))
		}
	}
	return dst, applied
}

// scanReport is evaluateResolved by scanExtents.
func scanReport(state *cluster.Cluster, cons []constraint.Entry) Report {
	var rep Report
	for _, id := range containerIDs(state) {
		node, _ := state.ContainerNode(id)
		tags, _ := state.ContainerTags(id)
		addends, applied := scanExtents(nil, state, cons, node, tags)
		rep.Subject += applied
		rep.Violated += len(addends)
		if applied > 0 {
			rep.SubjectContainers++
		}
		if len(addends) > 0 {
			rep.ViolatedContainers++
		}
		for _, x := range addends {
			rep.TotalExtent += x
		}
	}
	return rep
}

// containerIDs lists the containers of c, sorted.
func containerIDs(c *cluster.Cluster) []cluster.ContainerID {
	var ids []cluster.ContainerID
	c.EachContainer(func(id cluster.ContainerID, _ cluster.NodeID, _ []constraint.Tag) { ids = append(ids, id) })
	slices.Sort(ids)
	return ids
}

// placementDelta is vecAtoms.delta by a scan of every entry.
func placementDelta(state *cluster.Cluster, cons []constraint.Entry, tags []constraint.Tag, node cluster.NodeID, subjectOnly bool) float64 {
	total := 0.0
	for _, e := range cons {
		w := e.Constraint.EffectiveWeight()
		bestTerm, found := 0.0, false
		for _, term := range e.Constraint.Terms {
			applies := false
			sum := 0.0
			for _, a := range term {
				sum += atomDelta(state, a, tags, node, subjectOnly)
				if a.Subject.Matches(tags) || (!subjectOnly && a.Target.Matches(tags)) {
					applies = true
				}
			}
			if !applies {
				continue
			}
			if !found || sum < bestTerm {
				bestTerm, found = sum, true
			}
		}
		if found {
			total += w * bestTerm
		}
	}
	return total
}

// atomDelta is atomRef.delta with its matches made on every call and
// each of the three γ read by a query of its own: γ(subject ∧ target) as
// γ of the joined expression.
func atomDelta(state *cluster.Cluster, a constraint.Atom, tags []constraint.Tag, node cluster.NodeID, subjectOnly bool) float64 {
	delta := 0.0
	isSubject := a.Subject.Matches(tags)
	isTarget := a.Target.Matches(tags) && !subjectOnly
	if isSubject {
		delta += subjectExtent(state, &a, state.SetsOfNode(a.Group, node), false)
	}
	if !isTarget {
		return delta
	}
	both := append(slices.Clip(a.Subject), a.Target...)
	for _, sid := range state.SetsOfNode(a.Group, node) {
		gTotal := state.Gamma(a.Group, sid, a.Target)
		nSubj := state.Gamma(a.Group, sid, a.Subject)
		nBoth := state.Gamma(a.Group, sid, both)
		if nBoth > 0 {
			before, after := gTotal-1, gTotal
			if before < 0 {
				before = 0
			}
			delta += float64(nBoth) * (a.ViolationExtent(after) - a.ViolationExtent(before))
		}
		if n := nSubj - nBoth; n > 0 {
			delta += float64(n) * (a.ViolationExtent(gTotal+1) - a.ViolationExtent(gTotal))
		}
	}
	return delta
}

// relevantEntries filters entries to those with an atom whose subject or
// target a container with the given tags matches.
func relevantEntries(entries []constraint.Entry, tags []constraint.Tag) []constraint.Entry {
	var out []constraint.Entry
	for _, e := range entries {
		if slices.ContainsFunc(atomsOf(e.Constraint), func(a constraint.Atom) bool { return matchesAtom(a, tags) }) {
			out = append(out, e)
		}
	}
	return out
}

func matchesAtom(a constraint.Atom, tags []constraint.Tag) bool {
	return a.Subject.Matches(tags) || a.Target.Matches(tags)
}

// tagPopularity counts constraint atoms whose subject or target matches
// the container's tags.
func tagPopularity(cons []constraint.Entry, tags []constraint.Tag) int {
	n := 0
	for _, e := range cons {
		for _, a := range atomsOf(e.Constraint) {
			if matchesAtom(a, tags) {
				n++
			}
		}
	}
	return n
}

// scanSharesScope is sharesConstraintScope by a scan of every entry.
func scanSharesScope(cons []constraint.Entry, a, b []constraint.Tag) bool {
	for _, e := range cons {
		for _, atom := range atomsOf(e.Constraint) {
			if atom.Subject.Matches(b) && (atom.Target.Matches(a) || atom.Subject.Matches(a)) {
				return true
			}
		}
	}
	return false
}

// scanAffinityPopulation is affinityPopulation by a scan of every entry.
func scanAffinityPopulation(work *cluster.Cluster, cons []constraint.Entry, tags []constraint.Tag, node cluster.NodeID) float64 {
	total := 0.0
	for _, e := range cons {
		for _, a := range atomsOf(e.Constraint) {
			if !a.IsAffinity() || !a.Subject.Matches(tags) {
				continue
			}
			for _, sid := range work.SetsOfNode(a.Group, node) {
				total += float64(work.Gamma(a.Group, sid, a.Target))
			}
		}
	}
	return total
}

// planWeights are the weights planInstance draws: zero (which counts as
// one), fractions, and audit.DefaultHardWeight (100) and above.
var planWeights = []float64{0, 0.5, 1, 2.5, 100, 250}

// planInstance draws an oracle cluster with containers of random tag
// vectors on it, and a resolved constraint list of simple and DNF
// constraints over those tags with weights from planWeights. It returns
// the tag vectors it drew, for a caller to place more containers of.
func planInstance(rng *rand.Rand) (*cluster.Cluster, []constraint.Entry, [][]constraint.Tag) {
	state := oracleCluster(rng)
	appTags := []constraint.Tag{constraint.AppIDTag("p0"), constraint.AppIDTag("p1"), constraint.AppIDTag("p2")}
	var vectors [][]constraint.Tag
	for i := 0; i < 6; i++ {
		v := []constraint.Tag{oracleTags[rng.Intn(3)], appTags[rng.Intn(len(appTags))]}
		if rng.Intn(2) == 0 {
			v = append(v, oracleTags[rng.Intn(3)])
		}
		vectors = append(vectors, v)
	}
	for i := 0; i < 10+rng.Intn(30); i++ {
		node := cluster.NodeID(rng.Intn(state.NumNodes()))
		// Containers of one vector in a row, as one application's are.
		_ = state.Allocate(node, cluster.MakeContainerID(fmt.Sprint("c", i/3), i), resource.New(256, 0), vectors[(i/3)%len(vectors)])
	}
	var entries []constraint.Entry
	for i := 0; i < 2+rng.Intn(6); i++ {
		var c constraint.Constraint
		if rng.Intn(3) == 0 {
			c = or([]constraint.Atom{randomAtom(rng, appTags), randomAtom(rng, appTags)}, []constraint.Atom{randomAtom(rng, appTags)})
		} else {
			c = constraint.New(randomAtom(rng, appTags))
		}
		c.Weight = planWeights[rng.Intn(len(planWeights))]
		entries = append(entries, constraint.Entry{AppID: "p", Source: constraint.SourceApplication, Constraint: c})
	}
	return state, ResolveEntries(entries), vectors
}

// planStep allocates a container of a random drawn vector on a random
// node or releases a random container.
func planStep(rng *rand.Rand, state *cluster.Cluster, vectors [][]constraint.Tag, step int) {
	if ids := containerIDs(state); len(ids) > 0 && rng.Intn(3) == 0 {
		if err := state.Release(ids[rng.Intn(len(ids))]); err != nil {
			panic(err)
		}
		return
	}
	node := cluster.NodeID(rng.Intn(state.NumNodes()))
	_ = state.Allocate(node, cluster.MakeContainerID("step", step), resource.New(256, 0), vectors[rng.Intn(len(vectors))])
}

// TestCompiledDeltaMatchesReference: the compiled delta of every drawn
// tag vector, and of vectors no container carries, on every node, with
// and without subjectOnly, equals placementDelta over the whole list bit
// for bit, on random clusters after each of a run of random allocate and
// release steps. It does so priced directly and through a set memo
// woken at every step, as the score table prices a row. The list also
// holds atoms over a tag no container carries at first: random steps
// tentatively allocate a container of it and roll it back, so those
// atoms go from dormant to awake and back. Two mutants must be caught: a
// compile that drops the atoms a vector is only a target of, and a memo
// that keeps the dormant flags of its first wake.
func TestCompiledDeltaMatchesReference(t *testing.T) {
	compared, caught, kept, dormant, woke := 0, 0, 0, 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		state, cons, vectors := planInstance(rng)
		q := constraint.AppIDTag("q") // no container carries it until a step allocates one
		for _, a := range []constraint.Atom{
			randomAtom(rng, []constraint.Tag{q}), randomAtom(rng, []constraint.Tag{q}),
			constraint.AntiAffinity(constraint.E(q), constraint.E(q), constraint.Node),
			constraint.MaxCardinality(constraint.E("a", q), constraint.E(q), 1, constraint.Rack),
		} {
			cons = append(cons, constraint.Entry{AppID: "q", Source: constraint.SourceApplication, Constraint: constraint.New(a)})
		}
		queued := append(slices.Clone(vectors), []constraint.Tag{"b"}, []constraint.Tag{"c", "gpu"}, nil, []constraint.Tag{"a", q})
		type class struct {
			atoms       vecAtoms
			memo, stale [2]setMemo[float64] // by subjectOnly; stale is the mutant
		}
		classes := make([]class, len(queued))
		for k, tags := range queued {
			c := &classes[k]
			c.atoms = compileAtoms(nil, cons, tags)
			for so := range c.memo {
				c.memo[so].reset(state, c.atoms)
				c.stale[so].reset(state, c.atoms)
				c.stale[so].wake(state, c.atoms)
			}
		}
		tentative := cluster.ContainerID("")
		for step := 0; step < 8; step++ {
			for k, tags := range queued {
				c := &classes[k]
				var subjectOnly vecAtoms // the mutant
				for _, r := range c.atoms {
					if r.subject {
						subjectOnly = append(subjectOnly, r)
					}
				}
				for so, sOnly := range []bool{false, true} {
					m, stale := &c.memo[so], &c.stale[so]
					m.epoch++
					stale.epoch++
					m.wake(state, c.atoms)
					for _, d := range m.dormant {
						if d {
							dormant++
						}
					}
					differs := false
					for _, n := range state.Nodes() {
						want := placementDelta(state, cons, tags, n.ID, sOnly)
						for _, got := range []float64{c.atoms.delta(state, n.ID, sOnly, nil), c.atoms.delta(state, n.ID, sOnly, m)} {
							if math.Float64bits(got) != math.Float64bits(want) {
								t.Fatalf("seed %d step %d: delta(%q, node %d, subjectOnly %v) = %v, reference %v", seed, step, tags, n.ID, sOnly, got, want)
							}
						}
						compared++
						if math.Float64bits(subjectOnly.delta(state, n.ID, sOnly, nil)) != math.Float64bits(want) {
							caught++
						}
						if math.Float64bits(c.atoms.delta(state, n.ID, sOnly, stale)) != math.Float64bits(want) {
							differs = true
						}
					}
					if differs {
						kept++
					}
				}
			}
			planStep(rng, state, vectors, step)
			switch {
			case tentative != "":
				if _, ok := state.ContainerNode(tentative); ok { // planStep may have released it
					if err := state.Release(tentative); err != nil {
						t.Fatal(err)
					}
				}
				tentative = ""
			case rng.Intn(2) == 0:
				id := cluster.MakeContainerID("q", step)
				if state.Allocate(cluster.NodeID(rng.Intn(state.NumNodes())), id, resource.New(256, 0), []constraint.Tag{"a", q}) == nil {
					tentative = id
					woke++
				}
			}
		}
	}
	t.Logf("%d deltas compared, %d dormant atoms priced, %d tentative allocations woke them; the mutant without target-only atoms differs on %d, the memo on its first dormant flags on %d sweeps",
		compared, dormant, woke, caught, kept)
	if dormant == 0 || woke == 0 {
		t.Error("coverage: no atom was dormant, or no tentative allocation woke one")
	}
	if caught == 0 {
		t.Error("a compile that drops target-only atoms is not caught")
	}
	if kept == 0 {
		t.Error("a memo that keeps its first dormant flags is not caught")
	}
}

// TestSetMemoMatchesDirect: a sweep of every node priced through a set
// memo, as the score table and selectCandidates price them, equals
// direct pricing (a nil memo) bit for bit, for every drawn tag vector and
// a few no container carries, with and without subjectOnly, on the
// oracle clusters (racks, overlapping zones, a fault-domain group some
// nodes are in no set of, draining nodes), after each of a run of random
// allocate and release steps followed by an epoch bump. A memo whose
// epoch is never bumped must be caught.
func TestSetMemoMatchesDirect(t *testing.T) {
	type class struct {
		atoms       vecAtoms
		memo, stale [2]setMemo[float64] // by subjectOnly; stale is the mutant
	}
	swept, filled, caught := 0, 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		state, cons, vectors := planInstance(rng)
		queued := append(slices.Clone(vectors), []constraint.Tag{"b"}, []constraint.Tag{"c", "gpu"}, nil)
		classes := make([]class, len(queued))
		for k, tags := range queued {
			c := &classes[k]
			c.atoms = compileAtoms(nil, cons, tags)
			for so := range c.memo {
				c.memo[so].reset(state, c.atoms)
				c.stale[so].reset(state, c.atoms)
			}
		}
		for step := 0; step < 8; step++ {
			differs := false
			for k := range classes {
				c := &classes[k]
				for so, subjectOnly := range []bool{false, true} {
					m := &c.memo[so]
					if step > 0 {
						m.epoch++
					}
					for _, n := range state.Nodes() {
						want := c.atoms.delta(state, n.ID, subjectOnly, nil)
						if got := c.atoms.delta(state, n.ID, subjectOnly, m); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("seed %d step %d: memoised delta(%q, node %d, subjectOnly %v) = %v, direct %v", seed, step, queued[k], n.ID, subjectOnly, got, want)
						}
						if got := c.atoms.delta(state, n.ID, subjectOnly, &c.stale[so]); math.Float64bits(got) != math.Float64bits(want) {
							differs = true
						}
					}
					for _, cell := range m.cells {
						if cell.stamp == m.epoch {
							filled++
						}
					}
				}
			}
			swept++
			if differs {
				caught++
			}
			planStep(rng, state, vectors, step)
		}
	}
	t.Logf("%d states swept, %d memo entries filled; the memo never bumped differs on %d", swept, filled, caught)
	if filled == 0 {
		t.Error("no delta was memoised")
	}
	if caught == 0 {
		t.Error("a memo whose epoch is never bumped is not caught")
	}
}

// TestPlanIndexMatchesCompileAtoms: a plan compiles a tag vector
// through its index exactly as compileAtoms(nil, cons, tags) compiles it
// over the whole list, filtered to the atoms the vector is the subject
// of, atomRef for atomRef. The lists are planInstance's (simple and DNF
// constraints, subjects of one and two tags) and, every other seed,
// lists whose DNF constraints have subjects of up to three tags,
// repeats among them. The vectors are planInstance's, each again with
// one of its tags repeated, and random ones over the lists' tags and
// others, empty and with repeats. A compile that looks up only a
// vector's first tag must be caught.
func TestPlanIndexMatchesCompileAtoms(t *testing.T) {
	appTags := []constraint.Tag{constraint.AppIDTag("p0"), constraint.AppIDTag("p1"), constraint.AppIDTag("p2")}
	pool := append(slices.Clone(oracleTags), appTags...)
	pool = append(pool, "unused")
	draw := func(rng *rand.Rand, n int) []constraint.Tag {
		v := make([]constraint.Tag, n)
		for i := range v {
			v[i] = pool[rng.Intn(len(pool))]
		}
		return v
	}
	compared, nonEmpty, repeats, caught := 0, 0, 0, 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		state, cons, vectors := planInstance(rng)
		if seed%2 == 0 {
			var entries []constraint.Entry
			for i := 0; i < 3+rng.Intn(8); i++ {
				var terms [][]constraint.Atom
				for k := 0; k < 1+rng.Intn(3); k++ {
					var term []constraint.Atom
					for m := 0; m < 1+rng.Intn(2); m++ {
						a := randomAtom(rng, appTags)
						a.Subject = draw(rng, 1+rng.Intn(3))
						term = append(term, a)
					}
					terms = append(terms, term)
				}
				c := or(terms...)
				c.Weight = planWeights[rng.Intn(len(planWeights))]
				entries = append(entries, constraint.Entry{AppID: "r", Source: constraint.SourceApplication, Constraint: c})
			}
			cons = ResolveEntries(entries)
		}
		for _, v := range slices.Clone(vectors) {
			vectors = append(vectors, append(slices.Clone(v), v[rng.Intn(len(v))]))
		}
		for k := 0; k < 12; k++ {
			vectors = append(vectors, draw(rng, rng.Intn(5)))
		}
		p := newPlan(state, cons)
		for _, tags := range vectors {
			want := slices.DeleteFunc(compileAtoms(nil, cons, tags), func(r atomRef) bool { return !r.subject })
			if got := p.compile(nil, tags); !slices.Equal(got, want) {
				t.Fatalf("seed %d: compile(%q) = %v, compileAtoms %v", seed, tags, got, want)
			}
			compared++
			if len(want) > 0 {
				nonEmpty++
			}
			for i, tag := range tags {
				if slices.Contains(tags[:i], tag) {
					repeats++
					break
				}
			}
			if !slices.Equal(firstTagCompile(p, tags), want) {
				caught++
			}
		}
	}
	t.Logf("%d vectors compared, %d of them the subject of an atom, %d with a repeated tag; the compile looking up the first tag only differs on %d",
		compared, nonEmpty, repeats, caught)
	if nonEmpty == 0 || repeats == 0 {
		t.Error("coverage: one of the counts above is zero")
	}
	if caught == 0 {
		t.Error("a compile that looks up only a vector's first tag is not caught")
	}
}

// firstTagCompile is plan.compile looking up only the first tag of tags.
func firstTagCompile(p *plan, tags []constraint.Tag) vecAtoms {
	if len(tags) == 0 {
		return p.compile(nil, nil)
	}
	var out vecAtoms
	if k, ok := slices.BinarySearch(p.tags, tags[0]); ok {
		for _, pos := range p.at[p.start[k]:p.start[k+1]] {
			if r := p.all[pos]; r.atom.Subject.Matches(tags) {
				r.subject, r.target = true, r.atom.Target.Matches(tags)
				out = append(out, r)
			}
		}
	}
	return out
}

// TestExtentSweepMatchesScan: evaluateResolved's pricing of (node, tag
// vector) pairs returns the Report of a scan of every entry for every
// container; Violations over every node lists exactly the containers the
// scan finds violating, in ID order, each with the scan's summed extent;
// a plan handed colliding vector hashes prices like the scan; and a score
// base's first candidate pass lists the scan's violators with their
// addends, and both its first and a later candidate's score equal the
// scan's score of that candidate's state — all bit for bit, on random
// clusters, after each of a run of random allocate and release steps.
// Five mutants must be caught: a pass that counts a pair's applicable
// constraints once instead of once per container carrying the vector, a
// pass that prices only the first tag vector of each node, a compile
// cache that trusts a vector's hash without SameVector, a first score
// that prices only its candidate's region, and a later score whose pass
// reads γ through the memo epoch of the first candidate's.
func TestExtentSweepMatchesScan(t *testing.T) {
	swept, violating := 0, 0
	var caughtCount, caughtFirstVector, caughtHash, caughtRegion, caughtEpoch int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		state, cons, vectors := planInstance(rng)
		for step := 0; step < 8; step++ {
			want := scanReport(state, cons)
			if got := evaluateResolved(state, cons); got != want || math.Float64bits(got.TotalExtent) != math.Float64bits(want.TotalExtent) {
				t.Fatalf("seed %d step %d: evaluateResolved = %+v, scan %+v", seed, step, got, want)
			}
			scan := scanViolations(state, cons)
			var scanExt []Violation
			for _, v := range scan {
				ext := 0.0
				for _, x := range v.addends {
					ext += x
				}
				scanExt = append(scanExt, Violation{v.id, ext})
			}
			var all []cluster.NodeID
			for _, n := range state.Nodes() {
				all = append(all, n.ID)
			}
			if got := NewViolationRegion(state, cons, all).Violations(state); !slices.EqualFunc(got, scanExt, func(x, y Violation) bool {
				return x.Container == y.Container && math.Float64bits(x.Extent) == math.Float64bits(y.Extent)
			}) {
				t.Fatalf("seed %d step %d: Violations %v, scan %v", seed, step, got, scanExt)
			}
			// Every vector's hash collides: the cache must tell them apart.
			collided := pricedWith(state, cons, func(p *plan, tags []constraint.Tag, _ uint64) vecAtoms { return p.compiled(tags, 1) }, 0)
			if !sameViolations(collided, scan) {
				t.Fatalf("seed %d step %d: violators under colliding hashes %v, scan %v", seed, step, collided, scan)
			}
			// The mutants: once counts each pair as one container, first
			// prices the first vector each node lists only, and the cache
			// that trusts the hash serves a colliding vector another's
			// atoms.
			p := newPlan(state, cons)
			var once violators
			p.begin()
			for _, n := range state.Nodes() {
				state.EachNodeVector(n.ID, func(tags []constraint.Tag, hash uint64, _ int) {
					once.pricePair(p, state, n.ID, tags, p.compiled(tags, hash), 1)
				})
			}
			once.collect(state)
			if got := once.report(); got != want {
				caughtCount++
			}
			if !sameViolations(pricedWith(state, cons, (*plan).compiled, 1), scan) {
				caughtFirstVector++
			}
			if !sameViolations(pricedWith(state, cons, hashOnlyCompiled, 0), scan) {
				caughtHash++
			}

			// Two candidates scored in turn, as a Place scores Medea-TP's
			// placement and then Serial's; mb is the base whose later pass
			// keeps the first one's memo epoch.
			b, mb := newScoreBase(state, cons), newScoreBase(state, cons)
			res := planCandidate(rng, state, vectors, "first")
			wantFirst := scanScore(state, cons, res)
			if got := b.score(state, res); math.Float64bits(got) != math.Float64bits(wantFirst) {
				t.Fatalf("seed %d step %d: first score %v, scan %v", seed, step, got, wantFirst)
			}
			if got, scanned := listed(&b.base), scanViolations(state, cons); !sameViolations(got, scanned) {
				t.Fatalf("seed %d step %d: the first candidate's pass lists %v, scan %v", seed, step, got, scanned)
			}
			mb.score(state, res)
			region := newScoreBase(state, cons)
			region.markPlaced(region.region, state, res)
			if math.Float64bits(region.sum(state, res)) != math.Float64bits(wantFirst) {
				caughtRegion++
			}
			releasePlaced(state, res)
			res = planCandidate(rng, state, vectors, "later")
			wantLater := scanScore(state, cons, res)
			if got := b.score(state, res); math.Float64bits(got) != math.Float64bits(wantLater) {
				t.Fatalf("seed %d step %d: later score %v, scan %v", seed, step, got, wantLater)
			}
			mb.plan.memo.epoch-- // begin bumps it back to the first pass's
			if math.Float64bits(mb.score(state, res)) != math.Float64bits(wantLater) {
				caughtEpoch++
			}
			releasePlaced(state, res)

			swept++
			if len(scan) > 0 {
				violating++
			}
			planStep(rng, state, vectors, step)
		}
	}
	t.Logf("%d states compared, %d of them violating; caught: the pass counting each pair once on %d, the pass pricing each node's first vector only on %d, the cache trusting hashes on %d, the first score pricing its region only on %d, the later pass on the first's memo epoch on %d",
		swept, violating, caughtCount, caughtFirstVector, caughtHash, caughtRegion, caughtEpoch)
	if violating == 0 {
		t.Error("coverage: no state violates")
	}
	for _, m := range []struct {
		name   string
		caught int
	}{
		{"a pass that counts each (node, vector) pair once", caughtCount},
		{"a pass that prices each node's first vector only", caughtFirstVector},
		{"a compile cache that trusts the vector hash", caughtHash},
		{"a first score that prices its region only", caughtRegion},
		{"a later pass that keeps the first pass's memo epoch", caughtEpoch},
	} {
		if m.caught == 0 {
			t.Errorf("%s is not caught", m.name)
		}
	}
}

// scanViolations lists the containers of state the scan finds violating
// cons, by ID, with their addends.
func scanViolations(state *cluster.Cluster, cons []constraint.Entry) []violation {
	var out []violation
	for _, id := range containerIDs(state) {
		node, _ := state.ContainerNode(id)
		tags, _ := state.ContainerTags(id)
		if addends, _ := scanExtents(nil, state, cons, node, tags); len(addends) > 0 {
			out = append(out, violation{id, addends})
		}
	}
	return out
}

// scanScore is the score of res, placed on state, by scanReport.
func scanScore(state *cluster.Cluster, cons []constraint.Entry, res *Result) float64 {
	return float64(res.PlacedApps()) - scanReport(state, cons).TotalExtent/1e6
}

// pricedWith lists the violators of one pass over state, each vector
// compiled by compile; a vectors > 0 prices only the first that many
// vectors each node lists.
func pricedWith(state *cluster.Cluster, cons []constraint.Entry, compile func(p *plan, tags []constraint.Tag, hash uint64) vecAtoms, vectors int) []violation {
	p := newPlan(state, cons)
	var v violators
	p.begin()
	for _, n := range state.Nodes() {
		k := 0
		state.EachNodeVector(n.ID, func(tags []constraint.Tag, hash uint64, count int) {
			if vectors == 0 || k < vectors {
				v.pricePair(p, state, n.ID, tags, compile(p, tags, hash), count)
			}
			k++
		})
	}
	v.collect(state)
	return listed(&v)
}

// hashOnlyCompiled is plan.compiled taking a cache hit on the hash alone,
// every vector's hash replaced by one.
func hashOnlyCompiled(p *plan, tags []constraint.Tag, _ uint64) vecAtoms {
	if i, ok := p.byHash[1]; ok {
		v := p.vecs[i]
		return p.atoms[v.lo:v.hi]
	}
	return p.compiled(tags, 1)
}

// planCandidate allocates on state a placed application of one to three
// containers of drawn vectors on random nodes, as far as they fit, and
// returns it as the result a heuristic would.
func planCandidate(rng *rand.Rand, state *cluster.Cluster, vectors [][]constraint.Tag, app string) *Result {
	p := Placement{AppID: app, Placed: true}
	for k := 0; k < 1+rng.Intn(3); k++ {
		a := Assignment{Container: cluster.MakeContainerID(app, k), Node: cluster.NodeID(rng.Intn(state.NumNodes())),
			Demand: resource.New(256, 0), Tags: vectors[rng.Intn(len(vectors))]}
		if state.Allocate(a.Node, a.Container, a.Demand, a.Tags) == nil {
			p.Assignments = append(p.Assignments, a)
		}
	}
	return &Result{Placements: []Placement{p}}
}

// violation is a violating container and its addends.
type violation struct {
	id      cluster.ContainerID
	addends []float64
}

// listed returns v's violators with their addends.
func listed(v *violators) []violation {
	var out []violation
	for i, x := range v.list {
		out = append(out, violation{x.id, v.of(i)})
	}
	return out
}

func sameViolations(a, b []violation) bool {
	return slices.EqualFunc(a, b, func(x, y violation) bool { return x.id == y.id && sameBits(x.addends, y.addends) })
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestRegionViolationsMatchWholeState: the audit's hard check diffs
// Violations on a batch's region before and after the batch is
// allocated. The violators that diff finds new, with their extents,
// are the ones a diff of every node's violators finds (evaluateResolved's
// pass), in the same order, bit for bit, on random clusters with
// overlapping zones and batches of one to four containers, lists with
// hard weights included; and outside the region no violator appears,
// leaves or changes its extent. A region of the assigned nodes alone
// must be caught.
func TestRegionViolationsMatchWholeState(t *testing.T) {
	batches, withNew, caught := 0, 0, 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		state, cons, vectors := planInstance(rng)
		for step := 0; step < 8; step++ {
			var nodes []cluster.NodeID
			for k := 0; k < 1+rng.Intn(4); k++ {
				nodes = append(nodes, cluster.NodeID(rng.Intn(state.NumNodes())))
			}
			region := NewViolationRegion(state, cons, nodes)
			before, wholeBefore, nodesBefore := region.Violations(state), wholeViolations(state, cons), nodesOnlyViolations(state, cons, nodes)
			var ids []cluster.ContainerID
			for k, n := range nodes {
				id := cluster.MakeContainerID(fmt.Sprint("batch", step), k)
				if state.Allocate(n, id, resource.New(256, 0), vectors[rng.Intn(len(vectors))]) == nil {
					ids = append(ids, id)
				}
			}
			after, wholeAfter := region.Violations(state), wholeViolations(state, cons)
			got, want := newViolations(before, after), newViolations(wholeBefore, wholeAfter)
			if !sameViolationList(got, want) {
				t.Fatalf("seed %d step %d: the region diff finds %v new, the whole-state diff %v", seed, step, got, want)
			}
			in := newScoreBase(state, cons)
			for _, n := range nodes {
				in.mark(in.region, state, n)
			}
			outside := func(vs []Violation) []Violation {
				return slices.DeleteFunc(slices.Clone(vs), func(v Violation) bool {
					n, ok := state.ContainerNode(v.Container)
					return !ok || in.region[n]
				})
			}
			if !sameViolationList(outside(wholeBefore), outside(wholeAfter)) {
				t.Fatalf("seed %d step %d: outside the region the violators moved from %v to %v", seed, step, outside(wholeBefore), outside(wholeAfter))
			}
			batches++
			if len(want) > 0 {
				withNew++
			}
			if !sameViolationList(newViolations(nodesBefore, nodesOnlyViolations(state, cons, nodes)), want) {
				caught++
			}
			for _, id := range ids {
				if err := state.Release(id); err != nil {
					t.Fatal(err)
				}
			}
			planStep(rng, state, vectors, step)
		}
	}
	t.Logf("%d batches, %d of them with a new violator; the region of the assigned nodes alone differs on %d", batches, withNew, caught)
	if withNew == 0 {
		t.Error("coverage: no batch adds a violator")
	}
	if caught == 0 {
		t.Error("a region of the assigned nodes alone is not caught")
	}
}

// wholeViolations is Violations over every node, by evaluateResolved's
// pass.
func wholeViolations(state *cluster.Cluster, cons []constraint.Entry) []Violation {
	var v violators
	v.priceAll(newPlan(state, cons), state)
	return v.violations()
}

// nodesOnlyViolations is Violations with a region of nodes alone.
func nodesOnlyViolations(state *cluster.Cluster, cons []constraint.Entry, nodes []cluster.NodeID) []Violation {
	b := newScoreBase(state, cons)
	for _, n := range nodes {
		b.region[n] = true
	}
	b.work.priceRegion(b.plan, state, b.region)
	return b.work.violations()
}

// newViolations returns the violators of after, in ID order, that
// before does not list, as the audit's firstNew finds the first of them.
func newViolations(before, after []Violation) []Violation {
	var out []Violation
	for _, v := range after {
		if !slices.ContainsFunc(before, func(b Violation) bool { return b.Container == v.Container }) {
			out = append(out, v)
		}
	}
	return out
}

func sameViolationList(a, b []Violation) bool {
	return slices.EqualFunc(a, b, func(x, y Violation) bool {
		return x.Container == y.Container && math.Float64bits(x.Extent) == math.Float64bits(y.Extent)
	})
}
