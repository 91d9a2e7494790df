package federation

import (
	"testing"

	"medea/internal/metrics"
)

// holders returns the live (non-crashed) members whose schedulers hold
// the app, deployed or pending.
func holders(f *Fleet, appID string) []string {
	var out []string
	for _, m := range f.Members {
		if m.Gate.Crashed() {
			continue
		}
		for _, id := range append(m.Med.DeployedApps(), m.Med.PendingApps()...) {
			if id == appID {
				out = append(out, m.ID)
				break
			}
		}
	}
	return out
}

// TestMigrateHappyPath: a deployed app moves to the named destination —
// reservation, copy, source delete — and ends live on exactly the
// destination with the ledger re-homed.
func TestMigrateHappyPath(t *testing.T) {
	f, clk := testFleet(t, FleetConfig{Members: 2, NodesPerMember: 4})
	steps(f, clk, 2)

	home, err := f.Balancer.Submit(fedReq("app-a", 2, 1024, 1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	steps(f, clk, 3)

	dest := "cluster-1"
	if home == dest {
		dest = "cluster-0"
	}
	if err := f.Balancer.Migrate("app-a", dest); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	steps(f, clk, 20)

	if got, _ := f.Balancer.Home("app-a"); got != dest {
		t.Fatalf("home = %s, want %s", got, dest)
	}
	if h := holders(f, "app-a"); len(h) != 1 || h[0] != dest {
		t.Fatalf("live copies on %v, want exactly [%s]", h, dest)
	}
	if n := f.Stats.Get(metrics.MigrationsCompleted); n != 1 {
		t.Fatalf("MigrationsCompleted = %d, want 1", n)
	}
	if d := f.Balancer.MigrationDurations(); len(d) != 1 {
		t.Fatalf("MigrationDurations has %d entries, want 1", len(d))
	}
	if st, err := f.Balancer.Status("app-a"); err != nil || st.State != "deployed" {
		t.Fatalf("status %+v err %v, want deployed on the destination", st, err)
	}
}

// TestMigrateValidation: unknown members, unknown apps and self-moves
// are rejected up front rather than leaking protocol state.
func TestMigrateValidation(t *testing.T) {
	f, clk := testFleet(t, FleetConfig{Members: 2, NodesPerMember: 4})
	steps(f, clk, 2)
	home, err := f.Balancer.Submit(fedReq("app-a", 1, 512, 1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	steps(f, clk, 2)

	if err := f.Balancer.Migrate("app-a", "cluster-9"); err == nil {
		t.Fatal("migrate to unknown member did not fail")
	}
	if err := f.Balancer.Migrate("nope", "cluster-1"); err == nil {
		t.Fatal("migrate of unknown app did not fail")
	}
	if err := f.Balancer.Migrate("app-a", home); err == nil {
		t.Fatal("migrate to current home did not fail")
	}
	if n := f.Stats.Get(metrics.MigrationsStarted); n != 0 {
		t.Fatalf("MigrationsStarted = %d after rejected requests, want 0", n)
	}
}

// TestMigrationCrashMatrix is the acceptance sweep at the federation
// layer: a migration is interrupted at each protocol point by each kind
// of crash — the balancer (hook returns true: the wire response is
// dropped before its ledger transition), the source member, the
// destination member — and after recovery steps the app must be live on
// exactly one member with nothing lost.
func TestMigrationCrashMatrix(t *testing.T) {
	points := []MigPoint{MigPointPostPrepare, MigPointMidCommit, MigPointPreDelete, MigPointPostDelete}
	for _, point := range points {
		for _, victim := range []string{"balancer", "source", "dest"} {
			t.Run(string(point)+"/"+victim, func(t *testing.T) {
				f, clk := testFleet(t, FleetConfig{Members: 3, NodesPerMember: 4})
				steps(f, clk, 2)
				if _, err := f.Balancer.Submit(fedReq("app-a", 2, 1024, 1)); err != nil {
					t.Fatalf("submit: %v", err)
				}
				steps(f, clk, 3)
				src, _ := f.Balancer.Home("app-a")
				dest := "cluster-1"
				if src == dest {
					dest = "cluster-0"
				}

				crashed := ""
				fired := false
				f.Balancer.SetMigrationHook(func(p MigPoint, app string) bool {
					if fired || p != point || app != "app-a" {
						return false
					}
					fired = true
					switch victim {
					case "balancer":
						return true
					case "source":
						crashed = src
					case "dest":
						crashed = dest
					}
					f.CrashMember(crashed)
					return false
				})

				if err := f.Balancer.Migrate("app-a", dest); err != nil {
					t.Fatalf("migrate: %v", err)
				}
				steps(f, clk, 40)
				if !fired {
					t.Fatalf("crash point %s never fired", point)
				}
				if crashed != "" {
					if !f.RestartMember(crashed) {
						t.Fatalf("restarting %s failed", crashed)
					}
				}
				steps(f, clk, 40)

				if len(f.Balancer.Migrations()) != 0 {
					t.Fatalf("migration still unresolved: %v", f.Balancer.Migrations())
				}
				home, ok := f.Balancer.Home("app-a")
				if !ok {
					t.Fatal("ledger lost app-a")
				}
				if h := holders(f, "app-a"); len(h) != 1 || h[0] != home {
					t.Fatalf("live copies on %v, home %s; want exactly one copy at home", h, home)
				}
				rep := f.Balancer.Audit(clk.Now())
				if len(rep.Lost) != 0 {
					t.Fatalf("audit reports lost: %v", rep.Lost)
				}
			})
		}
	}
}

// TestDrainMemberEvacuates: draining a member moves every app off it (to
// ranked destinations), leaves the member cordoned so routing avoids it,
// and CancelDrain lifts the cordon again.
func TestDrainMemberEvacuates(t *testing.T) {
	f, clk := testFleet(t, FleetConfig{Members: 3, NodesPerMember: 4})
	steps(f, clk, 2)

	apps := []string{"app-a", "app-b", "app-c"}
	for _, id := range apps {
		if _, err := f.Balancer.Submit(fedReq(id, 1, 1024, 1)); err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
	}
	steps(f, clk, 4)
	victim, _ := f.Balancer.Home("app-a")

	if err := f.Balancer.DrainMember(victim); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i := 0; i < 80 && f.Balancer.DrainActive(victim); i++ {
		steps(f, clk, 1)
	}
	if f.Balancer.DrainActive(victim) {
		t.Fatal("drain never finished")
	}
	for _, id := range apps {
		home, ok := f.Balancer.Home(id)
		if !ok {
			t.Fatalf("%s lost", id)
		}
		if home == victim {
			t.Fatalf("%s still homed on drained member %s", id, victim)
		}
		if h := holders(f, id); len(h) != 1 || h[0] != home {
			t.Fatalf("%s live on %v, want exactly [%s]", id, h, home)
		}
	}
	// The cordon persists: the drained member reports Draining and new
	// submissions route elsewhere.
	steps(f, clk, 2)
	if rep, ok := f.Scout.LastReport(victim); !ok || !rep.Draining {
		t.Fatalf("drained member does not report Draining (report %+v)", rep)
	}
	if home, err := f.Balancer.Submit(fedReq("app-new", 1, 512, 1)); err != nil || home == victim {
		t.Fatalf("post-drain submission: home=%s err=%v, want a different member", home, err)
	}
	f.Balancer.CancelDrain(victim)
	steps(f, clk, 2)
	if rep, _ := f.Scout.LastReport(victim); rep.Draining {
		t.Fatal("CancelDrain did not lift the cordon")
	}
}

// TestDrainRacesFailover: the drained member dies mid-evacuation.
// Organic failover owns a dead member's apps; the drain must wait for it
// to empty the ledger and then converge as a no-op — one surviving copy
// per app, drain completed, nothing lost.
func TestDrainRacesFailover(t *testing.T) {
	f, clk := testFleet(t, FleetConfig{Members: 3, NodesPerMember: 4})
	steps(f, clk, 2)

	apps := []string{"app-a", "app-b", "app-c", "app-d"}
	for _, id := range apps {
		if _, err := f.Balancer.Submit(fedReq(id, 1, 1024, 1)); err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
	}
	steps(f, clk, 4)
	victim, _ := f.Balancer.Home("app-a")

	if err := f.Balancer.DrainMember(victim); err != nil {
		t.Fatalf("drain: %v", err)
	}
	steps(f, clk, 1) // drain underway, migrations possibly in flight
	f.CrashMember(victim)
	for i := 0; i < 120 && f.Balancer.DrainActive(victim); i++ {
		steps(f, clk, 1)
	}
	if f.Balancer.DrainActive(victim) {
		t.Fatal("drain never converged after the member died")
	}
	if n := f.Stats.Get(metrics.DrainsCompleted); n != 1 {
		t.Fatalf("DrainsCompleted = %d, want 1", n)
	}
	steps(f, clk, 20)
	for _, id := range apps {
		home, ok := f.Balancer.Home(id)
		if !ok {
			t.Fatalf("%s lost", id)
		}
		if home == victim {
			t.Fatalf("%s still homed on the dead member", id)
		}
		if h := holders(f, id); len(h) != 1 || h[0] != home {
			t.Fatalf("%s live on %v, want exactly [%s]", id, h, home)
		}
	}
}

// TestRollingRestartUnderLoad is the acceptance scenario: a three-member
// fleet with live apps is rolling-restarted; every member must be
// cycled (drained, crashed, rebuilt from journal, re-confirmed by the
// failure detector) while more submissions arrive, and nothing may be
// lost or duplicated at the end.
func TestRollingRestartUnderLoad(t *testing.T) {
	f, clk := testFleet(t, FleetConfig{Members: 3, NodesPerMember: 4})
	steps(f, clk, 2)

	apps := []string{"app-a", "app-b", "app-c", "app-d", "app-e", "app-f"}
	for _, id := range apps {
		if _, err := f.Balancer.Submit(fedReq(id, 1, 1024, 1)); err != nil {
			t.Fatalf("submit %s: %v", id, err)
		}
	}
	steps(f, clk, 4)

	if !f.StartRollingRestart() {
		t.Fatal("StartRollingRestart returned false")
	}
	if f.StartRollingRestart() {
		t.Fatal("second StartRollingRestart while active should return false")
	}
	extra := 0
	for i := 0; i < 400 && f.RollingActive(); i++ {
		steps(f, clk, 1)
		if i%25 == 10 {
			// Keep load arriving mid-restart; a cordoned or down member
			// must never be chosen.
			id := fedReq("app-load-"+string(rune('a'+extra)), 1, 512, 1)
			if _, err := f.Balancer.Submit(id); err == nil {
				apps = append(apps, id.ID)
				extra++
			}
		}
	}
	if f.RollingActive() {
		t.Fatal("rolling restart never completed")
	}
	if n := f.Stats.Get(metrics.RollingRestarts); n != 1 {
		t.Fatalf("RollingRestarts = %d, want 1", n)
	}
	steps(f, clk, 30)

	for _, m := range f.Members {
		if m.Gate.Crashed() {
			t.Fatalf("%s still down after rolling restart", m.ID)
		}
		if f.Scout.State(m.ID, clk.Now()) == Dead {
			t.Fatalf("%s not re-confirmed alive", m.ID)
		}
	}
	rep := f.Balancer.Audit(clk.Now())
	if len(rep.Lost) != 0 {
		t.Fatalf("audit reports lost after rolling restart: %v", rep.Lost)
	}
	for _, id := range apps {
		home, ok := f.Balancer.Home(id)
		if !ok {
			t.Fatalf("%s lost from the ledger", id)
		}
		if h := holders(f, id); len(h) != 1 || h[0] != home {
			t.Fatalf("%s live on %v, want exactly [%s]", id, h, home)
		}
	}
}
