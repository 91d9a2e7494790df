package lra_test

import (
	"testing"

	"medea/internal/audit"
	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/lra"
)

// TestPlacementSemanticsAudit is assertion (c) of the placement-semantics
// oracle (placement_oracle_test.go): over every all-or-nothing placement
// that fits, of the same 2,000 tiny instances, audit.CheckPlacement —
// called application by application as a commit calls it, against the
// state and entries the applications before it left — rejects exactly
// the placements that leave a non-zero extent under the hard-weight
// constraints. "Exactly" holds where the state was clean under those
// constraints before: the audit forgives containers that were already
// in violation, the evaluator's total does not tell them apart. Where
// it was not, a placement that leaves no hard extent must still pass.
func TestPlacementSemanticsAudit(t *testing.T) {
	var accepted, rejected, forgiving int
	for seed := int64(1); seed <= lra.OracleInstances(); seed++ {
		lra.TinyPlacements(seed, func(state *cluster.Cluster, apps []*lra.Application, active []constraint.Entry, res *lra.Result) {
			cur, entries := state, active
			for i, p := range res.Placements {
				if !p.Placed {
					continue
				}
				all := append([]constraint.Entry(nil), entries...)
				for _, c := range apps[i].Constraints {
					all = append(all, constraint.Entry{AppID: apps[i].ID, Source: constraint.SourceApplication, Constraint: c})
				}
				hard := audit.HardEntries(lra.ResolveEntries(all)) // as the audit resolves and filters
				next := cur.Clone()
				for _, a := range p.Assignments {
					if err := next.Allocate(a.Node, a.Container, a.Demand, a.Tags); err != nil {
						t.Fatalf("seed %d: %v", seed, err)
					}
				}
				before, after := lra.Evaluate(cur, hard), lra.Evaluate(next, hard)
				err := audit.CheckPlacement(cur.Clone(), apps[i], &p, all)
				switch {
				case after.TotalExtent == 0 && err != nil:
					t.Fatalf("seed %d %s: no hard extent after the placement, audit says: %v", seed, p.AppID, err)
				case before.Violated == 0 && after.TotalExtent > 0 && err == nil:
					t.Fatalf("seed %d %s: hard extent %v after the placement and none before, audit accepts %v",
						seed, p.AppID, after.TotalExtent, p.Assignments)
				case before.Violated > 0:
					forgiving++
				}
				if err != nil {
					rejected++
					continue // a commit requeues the application
				}
				accepted++
				cur, entries = next, all
			}
		})
	}
	t.Logf("%d placements accepted, %d rejected; %d judged on a state with hard violations already in it", accepted, rejected, forgiving)
	if accepted == 0 || rejected == 0 || forgiving == 0 {
		t.Fatal("coverage: one of the counts above is zero")
	}
}
