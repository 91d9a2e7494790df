package lra_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"medea/internal/constraint"
	"medea/internal/lra"
	"medea/internal/workload"
)

// dedupByText is the rule dedupEntries replaced: a later entry is dropped
// when its constraint renders to the same text as an earlier one's.
func dedupByText(entries []constraint.Entry) []constraint.Entry {
	seen := make(map[string]bool)
	var out []constraint.Entry
	for _, e := range entries {
		if k := e.Constraint.String(); !seen[k] {
			seen[k] = true
			out = append(out, e)
		}
	}
	return out
}

// appEntries wraps the constraints of apps as application entries.
func appEntries(apps ...*lra.Application) []constraint.Entry {
	var out []constraint.Entry
	for _, a := range apps {
		for _, c := range a.Constraints {
			out = append(out, constraint.Entry{AppID: a.ID, Source: constraint.SourceApplication, Constraint: c})
		}
	}
	return out
}

// templateEntries returns the constraints of every workload template,
// three instances of each and the first one twice, as one list.
func templateEntries() []constraint.Entry {
	var apps []*lra.Application
	for _, id := range []string{"i0", "i1", "i2", "i0"} {
		apps = append(apps,
			workload.HBase("hb-"+id, workload.DefaultHBase()),
			workload.HBase("hbx-"+id, workload.HBaseConfig{Workers: 4, MaxWorkersPerNode: 3}),
			workload.TensorFlow("tf-"+id, workload.DefaultTF()),
			workload.ResilienceApp("res-"+id, 100),
		)
		for _, mode := range []string{"none", "intra", "intra-inter"} {
			apps = append(apps, workload.StormPipeline("storm-"+mode+"-"+id, 4, mode))
		}
		apps = append(apps, workload.InterAppBatch(rand.New(rand.NewSource(1)), 6, 4, 3, "ia-"+id)...)
	}
	return appEntries(apps...)
}

// randomExpr draws one to three tags from a small alphabet, repeats
// allowed.
func randomExpr(rng *rand.Rand) constraint.Expr {
	tags := []constraint.Tag{"a", "b", "c", constraint.AppIDTag("x")}
	e := make(constraint.Expr, 1+rng.Intn(3))
	for i := range e {
		e[i] = tags[rng.Intn(len(tags))]
	}
	return e
}

// randomConstraint draws a simple or DNF constraint over few bounds and
// groups, weighted 0, 1, -1 (all three render no weight), 2 or 0.5.
func randomConstraint(rng *rand.Rand) constraint.Constraint {
	c := constraint.Constraint{Weight: []float64{0, 1, -1, 2, 0.5}[rng.Intn(5)]}
	for range 1 + rng.Intn(2) {
		var term []constraint.Atom
		for range 1 + rng.Intn(2) {
			term = append(term, constraint.Atom{
				Subject: randomExpr(rng), Target: randomExpr(rng),
				Min: rng.Intn(2), Max: []int{0, 1, 2, constraint.Unbounded}[rng.Intn(4)],
				Group: []constraint.GroupName{constraint.Node, constraint.Rack}[rng.Intn(2)],
			})
		}
		c.Terms = append(c.Terms, term)
	}
	return c
}

// variant copies c with every expression's tags shuffled and, half the
// time, its weight swapped for another that renders alike or differently.
func variant(rng *rand.Rand, c constraint.Constraint) constraint.Constraint {
	out := constraint.Constraint{Weight: c.Weight}
	if rng.Intn(2) == 0 {
		out.Weight = []float64{0, 1, -1, 2}[rng.Intn(4)]
	}
	for _, term := range c.Terms {
		var t []constraint.Atom
		for _, a := range term {
			a.Subject, a.Target = append(constraint.Expr(nil), a.Subject...), append(constraint.Expr(nil), a.Target...)
			rng.Shuffle(len(a.Subject), func(i, j int) { a.Subject[i], a.Subject[j] = a.Subject[j], a.Subject[i] })
			rng.Shuffle(len(a.Target), func(i, j int) { a.Target[i], a.Target[j] = a.Target[j], a.Target[i] })
			t = append(t, a)
		}
		out.Terms = append(out.Terms, t)
	}
	return out
}

// randomEntries draws n entries, about half of them variants of earlier
// ones.
func randomEntries(seed int64, n int) []constraint.Entry {
	rng := rand.New(rand.NewSource(seed))
	var out []constraint.Entry
	for i := 0; i < n; i++ {
		c := randomConstraint(rng)
		if i > 0 && rng.Intn(2) == 0 {
			c = variant(rng, out[rng.Intn(i)].Constraint)
		}
		out = append(out, constraint.Entry{AppID: fmt.Sprintf("r%d", i), Source: constraint.SourceApplication, Constraint: c})
	}
	return out
}

// TestDedupMatchesText: dedupEntries, which compares constraints by
// structure, keeps exactly the entries that deduplicating by
// Constraint.String keeps, on the workload templates, on every instance
// of the placement oracle, alone and all together, and on random lists
// with weights 0, 1 and -1, reordered tags and repeated tags. Where the
// text aliases two different constraints, it keeps both.
func TestDedupMatchesText(t *testing.T) {
	check := func(name string, entries []constraint.Entry) int {
		t.Helper()
		got, want := lra.DedupEntries(entries), dedupByText(entries)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: kept %d of %d entries, the text rule %d:\n%v\nwant\n%v", name, len(got), len(entries), len(want), got, want)
		}
		return len(entries) - len(got)
	}
	if dropped := check("templates", templateEntries()); dropped == 0 {
		t.Fatal("templates: no duplicate to drop")
	}
	var all []constraint.Entry
	for seed := int64(1); seed <= lra.OracleInstances(); seed++ {
		entries := lra.OracleEntries(seed)
		check(fmt.Sprintf("oracle seed %d", seed), entries)
		all = append(all, entries...)
	}
	check("every oracle instance", all)
	dropped := 0
	for seed := int64(1); seed <= 200; seed++ {
		dropped += check(fmt.Sprintf("random seed %d", seed), randomEntries(seed, 40))
	}
	if dropped == 0 {
		t.Fatal("random lists: no duplicate to drop")
	}

	ab := constraint.New(constraint.AntiAffinity(constraint.E("a&b"), constraint.E("c"), constraint.Node))
	aAndB := constraint.New(constraint.AntiAffinity(constraint.E("a", "b"), constraint.E("c"), constraint.Node))
	if ab.String() != aAndB.String() {
		t.Fatalf("fixture: %q and %q no longer render alike", ab, aAndB)
	}
	aliased := appEntries(&lra.Application{ID: "x", Constraints: []constraint.Constraint{ab, aAndB}})
	if got := lra.DedupEntries(aliased); len(got) != 2 {
		t.Fatalf("kept %d of %q and %q, want both", len(got), ab, aAndB)
	}
}
