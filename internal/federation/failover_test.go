package federation

import (
	"net/http"
	"testing"
	"time"

	"medea/internal/metrics"
	"medea/internal/resource"
)

// TestFailoverRehomesAppsZeroLoss is the headline robustness scenario:
// one of three member clusters is killed at its fault Gate while
// it is homing deployed applications. The detector must confirm the
// death, failover must re-place every affected app on the survivors, and
// the fleet-wide audit must account for every acknowledged submission —
// zero loss, nothing left homed on the corpse.
func TestFailoverRehomesAppsZeroLoss(t *testing.T) {
	f, clk := testFleet(t, FleetConfig{Members: 3, NodesPerMember: 4})
	steps(f, clk, 2)

	// Six light apps, spread by headroom-aware routing.
	for i := 0; i < 6; i++ {
		id := []string{"a", "b", "c", "d", "e", "f"}[i]
		if _, err := f.Balancer.Submit(fedReq("app-"+id, 2, 2048, 2)); err != nil {
			t.Fatalf("submit app-%s: %v", id, err)
		}
		steps(f, clk, 2)
	}
	steps(f, clk, 4) // let everything deploy
	pre := f.Balancer.Audit(clk.Now())
	if pre.Placed != 6 || len(pre.Lost) != 0 {
		t.Fatalf("pre-crash audit %+v, want 6 placed, none lost", pre)
	}
	var onVictim int
	for _, id := range []string{"app-a", "app-b", "app-c", "app-d", "app-e", "app-f"} {
		if home, _ := f.Balancer.Home(id); home == "cluster-0" {
			onVictim++
		}
	}
	if onVictim == 0 {
		t.Fatal("no apps homed on cluster-0; the crash would be vacuous")
	}

	// Kill cluster-0 now.
	f.Scout.Member("cluster-0").Gate.Crash()

	// Drive the fleet until the audit is clean again, bounding the
	// recovery time in probe rounds (detection needs 3 consecutive
	// misses; failover runs in the same round death is confirmed).
	recovered := -1
	for round := 1; round <= 12; round++ {
		steps(f, clk, 1)
		a := f.Balancer.Audit(clk.Now())
		if len(a.Lost) != 0 {
			t.Fatalf("round %d: lost apps %v", round, a.Lost)
		}
		if a.OnDead == 0 && a.Degraded == 0 && a.Placed == 6 {
			recovered = round
			break
		}
	}
	if recovered < 0 {
		t.Fatalf("fleet did not recover within 12 rounds: %+v", f.Balancer.Audit(clk.Now()))
	}
	t.Logf("failover recovered in %d probe rounds (%v simulated)", recovered, time.Duration(recovered)*50*time.Millisecond)

	if f.Stats.Get(metrics.FailoverEvents) != 1 {
		t.Fatalf("failover events %d, want 1", f.Stats.Get(metrics.FailoverEvents))
	}
	if f.Stats.Get(metrics.FailoverReplaced) != onVictim {
		t.Fatalf("failover replaced %d, want %d", f.Stats.Get(metrics.FailoverReplaced), onVictim)
	}
	// Every app is now homed on a survivor and reaches deployed again.
	steps(f, clk, 6)
	for _, id := range []string{"app-a", "app-b", "app-c", "app-d", "app-e", "app-f"} {
		home, ok := f.Balancer.Home(id)
		if !ok || home == "cluster-0" || home == "" {
			t.Fatalf("%s homed on %q after failover", id, home)
		}
		st, err := f.Balancer.Status(id)
		if err != nil || st.State != "deployed" {
			t.Fatalf("%s status %+v err %v, want deployed", id, st, err)
		}
	}
}

// TestDegradedModeQueuesAndRecovers: when the survivors cannot absorb a
// dead member's apps, the refugees park in degraded mode — visible in
// stats and status, never lost — and recover as soon as capacity frees
// up.
func TestDegradedModeQueuesAndRecovers(t *testing.T) {
	f, clk := testFleet(t, FleetConfig{Members: 2, NodesPerMember: 4, NodeCapacity: resource.New(4096, 4)})
	steps(f, clk, 2)

	// Four apps of two node-sized containers each fill both members
	// completely (4 nodes of 4096x4 per member).
	for _, id := range []string{"a", "b", "c", "d"} {
		if _, err := f.Balancer.Submit(fedReq("app-"+id, 2, 4096, 4)); err != nil {
			t.Fatalf("submit app-%s: %v", id, err)
		}
		steps(f, clk, 2)
	}
	steps(f, clk, 4)
	if a := f.Balancer.Audit(clk.Now()); a.Placed != 4 {
		t.Fatalf("pre-crash audit %+v, want 4 placed", a)
	}
	var victims, kept []string
	for _, id := range []string{"app-a", "app-b", "app-c", "app-d"} {
		if home, _ := f.Balancer.Home(id); home == "cluster-1" {
			victims = append(victims, id)
		} else {
			kept = append(kept, id)
		}
	}
	if len(victims) != 2 {
		t.Fatalf("apps on cluster-1: %v, want 2 (routing should have spread the load)", victims)
	}

	f.Scout.Member("cluster-1").Gate.Crash()
	steps(f, clk, 6) // detect + failover; cluster-0 is full, so degrade

	a := f.Balancer.Audit(clk.Now())
	if len(a.Lost) != 0 {
		t.Fatalf("lost apps %v; degraded mode must not lose acknowledged work", a.Lost)
	}
	if a.Degraded != 2 || a.Placed != 2 {
		t.Fatalf("audit %+v, want 2 degraded + 2 placed", a)
	}
	if f.Stats.Get(metrics.DegradedQueued) != 2 {
		t.Fatalf("degraded queued %d, want 2", f.Stats.Get(metrics.DegradedQueued))
	}
	for _, id := range victims {
		st, err := f.Balancer.Status(id)
		if err != nil || st.State != "degraded" {
			t.Fatalf("%s status %+v err %v, want degraded", id, st, err)
		}
	}

	// Free half of cluster-0: one degraded refugee must recover.
	if err := f.Balancer.Remove(kept[0]); err != nil {
		t.Fatalf("remove %s: %v", kept[0], err)
	}
	steps(f, clk, 6)
	a = f.Balancer.Audit(clk.Now())
	if a.Degraded != 1 || len(a.Lost) != 0 {
		t.Fatalf("post-free audit %+v, want exactly 1 still degraded, none lost", a)
	}
	if f.Stats.Get(metrics.DegradedRecovered) != 1 {
		t.Fatalf("degraded recovered %d, want 1", f.Stats.Get(metrics.DegradedRecovered))
	}
}

// TestFailoverSkipsCordonedSurvivor: the only survivor of a member's
// death is cordoned and has room. Failover and the degraded retry offer
// it nothing, round after round — no submission reaches it and no
// spillover is counted, although its reported free capacity fits — and
// the round after it is uncordoned places the refugee there.
func TestFailoverSkipsCordonedSurvivor(t *testing.T) {
	f, clk := testFleet(t, FleetConfig{Members: 2, NodesPerMember: 4})
	steps(f, clk, 2)
	if home, err := f.Balancer.Submit(fedReq("app-a", 1, 1024, 1)); err != nil || home != "cluster-0" {
		t.Fatalf("submit: home %q, err %v; want cluster-0", home, err)
	}
	steps(f, clk, 2)
	survivor := f.Scout.Member("cluster-1")
	drain := func(method string) {
		t.Helper()
		if code, err := survivor.request(time.Second, method, "/v1/drain", nil, nil); err != nil || code != http.StatusOK {
			t.Fatalf("%s /v1/drain: %d %v", method, code, err)
		}
	}
	drain(http.MethodPost)
	tap := tapReads(survivor, false)
	f.Scout.Member("cluster-0").Gate.Crash()
	for round := 0; f.Stats.Get(metrics.FailoverEvents) == 0; round++ {
		if round == 12 {
			t.Fatal("cluster-0's death was not confirmed within 12 rounds")
		}
		steps(f, clk, 1)
	}
	steps(f, clk, 4) // the degraded retry runs every round
	if tap.submits != 0 || f.Stats.Get(metrics.Spillovers) != 0 {
		t.Fatalf("cordoned survivor got %d submissions, %d spillovers counted; want none", tap.submits, f.Stats.Get(metrics.Spillovers))
	}
	if a := f.Balancer.Audit(clk.Now()); a.Degraded != 1 || len(a.Lost) != 0 {
		t.Fatalf("audit %+v, want app-a degraded", a)
	}
	drain(http.MethodDelete)
	steps(f, clk, 1)
	if home, _ := f.Balancer.Home("app-a"); home != "cluster-1" || tap.submits != 1 {
		t.Fatalf("round after uncordon: app-a homed on %q after %d submissions; want cluster-1 after 1", home, tap.submits)
	}
}
