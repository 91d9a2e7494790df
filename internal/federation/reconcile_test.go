package federation

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"medea/internal/core"
	"medea/internal/metrics"
	"medea/internal/server"
)

// TestAmbiguousRouteFailureReconciles: a submission whose only attempt is
// served but whose ack stalls past the attempt timeout fails routing —
// yet the member committed the work. The balancer must remember the
// failed routing's ambiguous attempts (surfaced as Reconciling, never
// Lost) and adopt the landed copy once the member answers again, instead
// of orphaning it.
func TestAmbiguousRouteFailureReconciles(t *testing.T) {
	f, clk := testFleet(t, FleetConfig{
		Members: 2,
		Route:   RouteConfig{AttemptTimeout: 10 * time.Millisecond, MaxRounds: 1},
	})
	steps(f, clk, 2)

	// cluster-0 serves but stalls every ack past the attempt timeout;
	// cluster-1 is unreachable. Routing must fail without a home.
	f.Members[0].Gate.SlowTail(100*time.Millisecond, 1)
	f.PartitionMember("cluster-1", true)
	if _, err := f.Balancer.Submit(fedReq("app-x", 1, 512, 1)); err == nil {
		t.Fatal("submit succeeded though every ack was dropped")
	}

	a := f.Balancer.Audit(clk.Now())
	if a.Reconciling != 1 || len(a.Lost) != 0 {
		t.Fatalf("post-failure audit %+v, want 1 reconciling, none lost", a)
	}

	f.HealMember("cluster-0")
	f.HealMember("cluster-1")
	steps(f, clk, 4)

	home, ok := f.Balancer.Home("app-x")
	if !ok || home != "cluster-0" {
		t.Fatalf("landed copy not adopted: home %q ok %v, want cluster-0", home, ok)
	}
	if f.Stats.Get(metrics.Reconciled) != 1 {
		t.Fatalf("reconciled %d, want 1", f.Stats.Get(metrics.Reconciled))
	}
	a = f.Balancer.Audit(clk.Now())
	if a.Placed != 1 || a.Reconciling != 0 || len(a.Lost) != 0 {
		t.Fatalf("post-adoption audit %+v, want 1 placed", a)
	}
}

// TestAckDroppedDuplicateRemoved: the first-ranked member accepts the
// submission but its ack times out; the balancer spills to the second
// member, which acks. Reconciliation must find the duplicate on the slow
// member — even while it is merely pending there — and delete it, which
// exercises the serving layer's withdraw path fleet-wide.
func TestAckDroppedDuplicateRemoved(t *testing.T) {
	f, clk := testFleet(t, FleetConfig{
		Members: 2,
		Route:   RouteConfig{AttemptTimeout: 10 * time.Millisecond},
	})
	steps(f, clk, 2)

	f.Members[0].Gate.SlowTail(100*time.Millisecond, 1)
	home, err := f.Balancer.Submit(fedReq("app-y", 1, 512, 1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if home != "cluster-1" {
		t.Fatalf("home %q, want spillover to cluster-1", home)
	}
	f.HealMember("cluster-0")
	steps(f, clk, 4)

	if f.Stats.Get(metrics.Reconciled) != 1 {
		t.Fatalf("reconciled %d, want 1 (duplicate on cluster-0 deleted)", f.Stats.Get(metrics.Reconciled))
	}
	if got := f.Members[0].Med.DeployedLRAs() + f.Members[0].Med.PendingLRAs(); got != 0 {
		t.Fatalf("cluster-0 still holds %d copies of the app", got)
	}
	a := f.Balancer.Audit(clk.Now())
	if a.Placed != 1 || len(a.Lost) != 0 {
		t.Fatalf("audit %+v, want exactly the cluster-1 copy placed", a)
	}
}

// TestReconcileDropsTerminalDuplicateMark: an ambiguous mark pointing at
// a copy the member already drove to a terminal state (here: rejected)
// must be dropped — there is nothing to delete, and retrying DELETE
// against it every Step would spin forever. With no home and no marks
// left, the ledger entry itself is garbage-collected.
func TestReconcileDropsTerminalDuplicateMark(t *testing.T) {
	f, clk := testFleet(t, FleetConfig{
		Members: 2,
		Core:    core.Config{MaxRetries: -1}, // unplaceable apps reject on the first cycle
	})
	steps(f, clk, 2)

	// Land an unplaceable app on cluster-0 directly; it is rejected by the
	// scheduler after draining into the core.
	req := fedReq("app-r", 1, 999999, 1)
	code, routeErr := f.Balancer.call("cluster-0", http.MethodPost, "/v1/lras", mustBody(t, req), nil)
	if routeErr != nil || code != 202 {
		t.Fatalf("direct submit: code %d err %v", code, routeErr)
	}
	steps(f, clk, 3)
	if st, err := f.Balancer.call("cluster-0", http.MethodGet, "/v1/lras/app-r", nil, nil); err != nil || st != 200 {
		t.Fatalf("status code %d err %v", st, err)
	}

	// Simulate a routing failure that left only an ambiguous mark behind.
	f.Balancer.mu.Lock()
	f.Balancer.routed["app-r"] = &routedApp{id: "app-r", marks: []string{"cluster-0"}}
	f.Balancer.mu.Unlock()

	steps(f, clk, 2)
	if _, ok := f.Balancer.Home("app-r"); ok {
		t.Fatal("terminal duplicate was adopted or kept in the ledger")
	}
	a := f.Balancer.Audit(clk.Now())
	if len(a.Lost) != 0 || a.Reconciling != 0 {
		t.Fatalf("audit %+v, want empty", a)
	}
}

func mustBody(t *testing.T, req *server.SubmitRequest) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
