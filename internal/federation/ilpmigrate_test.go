package federation

import (
	"testing"

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

// TestMigrationRoundTripOnILPMember: an app lands on an ILP member via a
// two-phase cross-cluster migration, is moved away and back, and every
// step converges to one live, invariant-clean copy that the audit
// accounts for.
func TestMigrationRoundTripOnILPMember(t *testing.T) {
	f, clk := testFleet(t, FleetConfig{Members: 2, NodesPerMember: 8, Algorithm: lra.NewILP})
	steps(f, clk, 2)

	home, err := f.Balancer.Submit(&server.SubmitRequest{
		ID:     "svc",
		Groups: []server.GroupSpec{{Name: "w", Count: 2, MemoryMB: 1024, VCores: 1, Tags: []string{"tx"}}},
	})
	if err != nil {
		t.Fatalf("submit svc: %v", err)
	}
	steps(f, clk, 6)

	// Move svc cross-cluster onto the member that does NOT hold it.
	dest, other := "cluster-0", "cluster-1"
	if home == dest {
		dest, other = other, dest
	}
	if err := f.Balancer.Migrate("svc", dest); err != nil {
		t.Fatalf("migrate svc: %v", err)
	}
	steps(f, clk, 20)
	if got, _ := f.Balancer.Home("svc"); got != dest {
		t.Fatalf("home(svc) = %s, want %s", got, dest)
	}
	m := memberByID(t, f, dest)
	if ids, ok := m.Med.Deployed("svc"); !ok || len(ids) != 2 {
		t.Fatalf("svc not deployed on %s: %v", dest, ids)
	}
	if err := m.Med.CheckInvariants(); err != nil {
		t.Fatalf("invariants after migration: %v", err)
	}

	// Round-trip svc away and back: dest re-solves it from scratch.
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
		t.Fatal("svc not redeployed on the destination")
	}
	if err := m.Med.CheckInvariants(); err != nil {
		t.Fatalf("invariants after round trip: %v", err)
	}
	if rep := f.Balancer.Audit(clk.Now()); len(rep.Lost) != 0 {
		t.Fatalf("audit lost %v, want none", rep.Lost)
	}
}
