package federation

import (
	"testing"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/lra"
	"medea/internal/server"
)

func memberByID(t *testing.T, f *Fleet, id string) *Member {
	t.Helper()
	for _, m := range f.Members {
		if m.ID == id {
			return m
		}
	}
	t.Fatalf("no member %q", id)
	return nil
}

func idSet(ids []cluster.ContainerID) map[cluster.ContainerID]bool {
	s := make(map[cluster.ContainerID]bool, len(ids))
	for _, id := range ids {
		s[id] = true
	}
	return s
}

// TestMigrationThenIntraClusterRebalance: the cross-cluster and
// intra-cluster movers compose. An app lands on an ILP member via a
// two-phase cross-cluster migration; an operator constraint then makes
// its placement violating, and the member's own Rebalance (§5.4) fixes
// it in place. The rebalance must move containers without renaming them
// — container identity is the migrator's and the journal's join key. A
// second round trip then re-solves the app on the same member, and
// everything still converges to one live, invariant-clean copy.
func TestMigrationThenIntraClusterRebalance(t *testing.T) {
	f, clk := testFleet(t, FleetConfig{Members: 2, NodesPerMember: 8, Algorithm: lra.NewILP})
	steps(f, clk, 2)

	submit := func(id string, count int, tag string) string {
		t.Helper()
		home, err := f.Balancer.Submit(&server.SubmitRequest{
			ID:     id,
			Groups: []server.GroupSpec{{Name: "w", Count: count, MemoryMB: 1024, VCores: 1, Tags: []string{tag}}},
		})
		if err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
		return home
	}
	homeAnchor := submit("anchor", 1, "ta")
	homeSvc := submit("svc", 2, "tx")
	steps(f, clk, 6)

	// Move svc cross-cluster onto the member that does NOT hold it, and
	// pull anchor onto the same member if routing separated them.
	dest := "cluster-0"
	if homeSvc == dest {
		dest = "cluster-1"
	}
	if err := f.Balancer.Migrate("svc", dest); err != nil {
		t.Fatalf("migrate svc: %v", err)
	}
	if homeAnchor != dest {
		if err := f.Balancer.Migrate("anchor", dest); err != nil {
			t.Fatalf("migrate anchor: %v", err)
		}
	}
	steps(f, clk, 20)
	for _, app := range []string{"svc", "anchor"} {
		if got, _ := f.Balancer.Home(app); got != dest {
			t.Fatalf("home(%s) = %s, want %s", app, got, dest)
		}
	}

	m := memberByID(t, f, dest)
	before, ok := m.Med.Deployed("svc")
	if !ok || len(before) != 2 {
		t.Fatalf("svc not deployed on %s: %v", dest, before)
	}
	anchorIDs, _ := m.Med.Deployed("anchor")
	anchorNode, _ := m.Med.Cluster.ContainerNode(anchorIDs[0])

	// Make the migrated placement violating with an operator constraint
	// chosen from where the ILP actually put things: if every svc
	// container shares the anchor's node, forbid the co-location;
	// otherwise demand it. Either way at least one svc container
	// violates, and with 8 near-empty 16GB nodes the fix always fits.
	colocated := true
	for _, id := range before {
		if n, _ := m.Med.Cluster.ContainerNode(id); n != anchorNode {
			colocated = false
		}
	}
	var op constraint.Atom
	if colocated {
		op = constraint.AntiAffinity(constraint.E("tx"), constraint.E("ta"), constraint.Node)
	} else {
		op = constraint.Affinity(constraint.E("tx"), constraint.E("ta"), constraint.Node)
	}
	if err := m.Med.Constraints.AddOperator(constraint.New(op)); err != nil {
		t.Fatalf("add operator constraint: %v", err)
	}
	vBefore := lra.Evaluate(m.Med.Cluster, m.Med.ActiveEntries())
	if vBefore.ViolatedContainers == 0 {
		t.Fatal("operator constraint did not make the placement violating")
	}

	plan := m.Med.Rebalance(lra.MigrationOptions{MaxMoves: 4, MoveCost: 0.01, Clock: clk.Now})
	if len(plan.Moves) == 0 {
		t.Fatal("rebalance proposed no moves")
	}
	vAfter := lra.Evaluate(m.Med.Cluster, m.Med.ActiveEntries())
	if vAfter.ViolatedContainers >= vBefore.ViolatedContainers {
		t.Fatalf("rebalance did not help: %d -> %d violated (moves %v)",
			vBefore.ViolatedContainers, vAfter.ViolatedContainers, plan.Moves)
	}

	// Identity stable: the moves re-noded the same containers.
	after, ok := m.Med.Deployed("svc")
	if !ok {
		t.Fatal("svc lost by rebalance")
	}
	bs, as := idSet(before), idSet(after)
	if len(bs) != len(as) {
		t.Fatalf("container count changed: %v -> %v", before, after)
	}
	for id := range bs {
		if !as[id] {
			t.Fatalf("rebalance renamed containers: %v -> %v", before, after)
		}
	}
	if err := m.Med.CheckInvariants(); err != nil {
		t.Fatalf("invariants after rebalance: %v", err)
	}

	// Round-trip svc away and back while the destination's warm memory
	// still remembers the pre-rebalance placement. The re-solve on dest
	// replays that stale S/svc entry; it must act as a warm hint, never
	// as committed truth.
	other := "cluster-0"
	if dest == other {
		other = "cluster-1"
	}
	if err := f.Balancer.Migrate("svc", other); err != nil {
		t.Fatalf("migrate svc away: %v", err)
	}
	steps(f, clk, 12)
	if err := f.Balancer.Migrate("svc", dest); err != nil {
		t.Fatalf("migrate svc back: %v", err)
	}
	steps(f, clk, 12)

	if got, _ := f.Balancer.Home("svc"); got != dest {
		t.Fatalf("home(svc) after round trip = %s, want %s", got, dest)
	}
	if h := holders(f, "svc"); len(h) != 1 || h[0] != dest {
		t.Fatalf("live copies on %v, want exactly [%s]", h, dest)
	}
	if _, ok := m.Med.Deployed("svc"); !ok {
		t.Fatal("svc not redeployed on the rebalanced member")
	}
	if err := m.Med.CheckInvariants(); err != nil {
		t.Fatalf("invariants after round trip: %v", err)
	}
	if rep := f.Balancer.Audit(clk.Now()); len(rep.Lost) != 0 {
		t.Fatalf("audit lost %v, want none", rep.Lost)
	}
}
