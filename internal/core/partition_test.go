package core

import (
	"reflect"
	"testing"

	"medea/internal/constraint"
	"medea/internal/lra"
)

// TestPartitionCouplesThroughActiveEntries: batch apps that share no tag
// are still one component when an active entry reaches both. "x" and "y"
// meet through a deployed LRA's entry: its expression names x's tag, and
// y's own constraint names that LRA's app tag. "z" and "w" meet through
// an operator entry whose subject and target are their tags.
func TestPartitionCouplesThroughActiveEntries(t *testing.T) {
	x, y, z, w := app("x", 1, "tx"), app("y", 1, "ty"), app("z", 1, "tz"), app("w", 1, "tw")
	y.Constraints = []constraint.Constraint{constraint.New(constraint.Affinity(
		constraint.E("ty"), constraint.E(constraint.AppIDTag("dep")), constraint.Node))}
	active := []constraint.Entry{
		{AppID: "dep", Source: constraint.SourceApplication, Constraint: constraint.New(constraint.AntiAffinity(
			constraint.E("tx"), constraint.E("td"), constraint.Node))},
		{Source: constraint.SourceOperator, Constraint: constraint.New(constraint.MaxCardinality(
			constraint.E("tz"), constraint.E("tw"), 1, constraint.Node))},
	}
	apps := []*lra.Application{x, z, y, w}
	if got, want := partitionBatch(apps, active), [][]int{{0, 2}, {1, 3}}; !reflect.DeepEqual(got, want) {
		t.Errorf("with the active entries: components %v, want %v", got, want)
	}
	if got, want := partitionBatch(apps, nil), [][]int{{0}, {1}, {2}, {3}}; !reflect.DeepEqual(got, want) {
		t.Errorf("without them: components %v, want %v", got, want)
	}
}

// TestPartitionOneApp: a batch of one app is one component, with or
// without active entries that reach it, and partitioning it allocates
// only the answer.
func TestPartitionOneApp(t *testing.T) {
	x := app("x", 2, "tx")
	x.Constraints = []constraint.Constraint{constraint.New(constraint.AntiAffinity(
		constraint.E("tx"), constraint.E("tx"), constraint.Node))}
	active := []constraint.Entry{
		{AppID: "dep", Source: constraint.SourceApplication, Constraint: constraint.New(constraint.AntiAffinity(
			constraint.E("tx"), constraint.E("td"), constraint.Node))},
	}
	apps := []*lra.Application{x}
	for _, act := range [][]constraint.Entry{nil, active} {
		if got, want := partitionBatch(apps, act), [][]int{{0}}; !reflect.DeepEqual(got, want) {
			t.Errorf("components %v, want %v", got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { partitionBatch(apps, active) }); n > 2 {
		t.Errorf("partitioning one app allocated %v times, want at most 2", n)
	}
}
