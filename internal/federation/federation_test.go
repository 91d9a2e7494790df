package federation

import (
	"sync"
	"testing"
	"time"

	"medea/internal/metrics"
	"medea/internal/server"
)

// fakeClock is the manual time source shared by members, scout and
// balancer in fleet tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(40000, 0).UTC()} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

// testFleet builds a deterministic fleet: fake clock, no backoff sleeps,
// 50ms cadence everywhere, small grids.
func testFleet(t *testing.T, cfg FleetConfig) (*Fleet, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	cfg.Clock = clk.Now
	if cfg.Core.Interval == 0 {
		cfg.Core.Interval = 50 * time.Millisecond
	}
	if cfg.Route.Sleep == nil {
		cfg.Route.Sleep = func(time.Duration) {} // no real backoff sleeps in tests
	}
	if cfg.Scout.ProbeTimeout == 0 {
		cfg.Scout.ProbeTimeout = 10 * time.Millisecond
	}
	cfg.Logf = t.Logf
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	return f, clk
}

// steps advances fake time by the core interval and runs a synchronous
// fleet round, n times.
func steps(f *Fleet, clk *fakeClock, n int) {
	for i := 0; i < n; i++ {
		clk.Advance(50 * time.Millisecond)
		f.Step(clk.Now())
	}
}

func fedReq(id string, containers int, memMB, vcores int64) *server.SubmitRequest {
	return &server.SubmitRequest{
		ID:     id,
		Groups: []server.GroupSpec{{Name: "w", Count: containers, MemoryMB: memMB, VCores: vcores}},
	}
}

// TestRoutingFollowsCapacity: after one member absorbs an app, the next
// submission routes to the member with more headroom.
func TestRoutingFollowsCapacity(t *testing.T) {
	f, clk := testFleet(t, FleetConfig{Members: 2, NodesPerMember: 4})
	steps(f, clk, 2) // first reports

	home1, err := f.Balancer.Submit(fedReq("app-a", 8, 4096, 4))
	if err != nil {
		t.Fatalf("submit app-a: %v", err)
	}
	steps(f, clk, 3) // deploy app-a, refresh reports

	home2, err := f.Balancer.Submit(fedReq("app-b", 2, 1024, 1))
	if err != nil {
		t.Fatalf("submit app-b: %v", err)
	}
	if home1 == home2 {
		t.Fatalf("both apps routed to %s; second should follow headroom to the emptier member", home1)
	}
	if st, err := f.Balancer.Status("app-a"); err != nil || st.State != "deployed" {
		t.Fatalf("app-a status %+v err %v, want deployed", st, err)
	}
}

// TestSpilloverOnThrottle: when the top-ranked member answers 429, the
// submission spills over to the next member instead of failing.
func TestSpilloverOnThrottle(t *testing.T) {
	f, clk := testFleet(t, FleetConfig{
		Members: 2,
		Server:  server.Config{RateLimit: server.RateLimitConfig{GlobalRate: 1, Burst: 1}},
	})
	steps(f, clk, 2)

	// Burn cluster-0's only token, then submit again in the same fake
	// instant: cluster-0 throttles, the balancer must spill to cluster-1.
	home1, err := f.Balancer.Submit(fedReq("app-a", 1, 512, 1))
	if err != nil {
		t.Fatalf("submit app-a: %v", err)
	}
	if home1 != "cluster-0" {
		t.Fatalf("app-a routed to %s, want cluster-0 (rank tiebreak)", home1)
	}
	home2, err := f.Balancer.Submit(fedReq("app-b", 1, 512, 1))
	if err != nil {
		t.Fatalf("submit app-b: %v", err)
	}
	if home2 != "cluster-1" {
		t.Fatalf("app-b routed to %s, want spillover to cluster-1", home2)
	}
	if f.Stats.Spillovers() == 0 {
		t.Fatal("spillover not counted")
	}
}

// TestSpilloverOnPartition: an unreachable (but not dead) member is
// skipped within the same routing pass; the submission lands elsewhere.
func TestSpilloverOnPartition(t *testing.T) {
	f, clk := testFleet(t, FleetConfig{Members: 2})
	steps(f, clk, 2)

	f.Scout.Member("cluster-0").Gate.Partition(true)
	home, err := f.Balancer.Submit(fedReq("app-a", 2, 1024, 1))
	if err != nil {
		t.Fatalf("submit under partition: %v", err)
	}
	if home != "cluster-1" {
		t.Fatalf("app routed to %s, want cluster-1", home)
	}
	if f.Stats.Get(metrics.RouteFailures) != 0 {
		t.Fatal("partition of one member must not fail routing")
	}

	// Healing the partition keeps the member routable again.
	f.Scout.Member("cluster-0").Gate.Heal()
	steps(f, clk, 2)
	if st := f.Scout.State("cluster-0", clk.Now()); st == Dead {
		t.Fatalf("healed member is %v, want not dead", st)
	}
}

// TestSlowMemberNeverConfirmedDead drives the full stack version of the
// anti-flap guarantee: a member whose every second response stalls past
// the probe timeout keeps flapping between miss and heartbeat; the fleet
// must keep it out of failover forever.
func TestSlowMemberNeverConfirmedDead(t *testing.T) {
	f, clk := testFleet(t, FleetConfig{Members: 2})
	steps(f, clk, 4) // learn a baseline cadence

	// Stall every 2nd request for 3x the probe timeout.
	f.Scout.Member("cluster-1").Gate.Slow(30*time.Millisecond, 2)
	for i := 0; i < 20; i++ {
		steps(f, clk, 1)
		if st := f.Scout.State("cluster-1", clk.Now()); st == Dead {
			t.Fatalf("round %d: slow-but-alive member confirmed dead", i)
		}
	}
	if f.Stats.Get(metrics.DeadConfirms) != 0 {
		t.Fatal("dead confirm counted for a slow member")
	}
	if f.Stats.Get(metrics.ProbeMisses) == 0 {
		t.Fatal("slow member produced no probe misses — fault injection inert")
	}
}

// TestRouteRetryBackoffIsJittered: the between-round backoff grows
// exponentially and carries per-app jitter, so two failing submissions
// do not retry in lockstep.
func TestRouteRetryBackoffIsJittered(t *testing.T) {
	b := &Balancer{cfg: RouteConfig{}}
	d1 := b.routeBackoff("app-a", 1)
	d2 := b.routeBackoff("app-b", 1)
	if d1 == d2 {
		t.Fatalf("identical backoff %v for distinct apps", d1)
	}
	if base := routeBackoffBase; d1 < 2*base || d1 >= 3*base {
		t.Fatalf("round-1 backoff %v outside [2*base, 3*base)", d1)
	}
	// Growth is capped at routeBackoffCap (plus jitter under half of it).
	if d := b.routeBackoff("app-a", 10); d >= routeBackoffCap+routeBackoffCap/2 {
		t.Fatalf("backoff %v beyond cap", d)
	}
}

// TestAllMembersSheddingFailsCleanly: when every member throttles, the
// submission fails with an error after bounded retries — no hang, no
// phantom ack.
func TestAllMembersSheddingFailsCleanly(t *testing.T) {
	f, clk := testFleet(t, FleetConfig{
		Members: 2,
		Server:  server.Config{RateLimit: server.RateLimitConfig{GlobalRate: 1, Burst: 1}},
		Route:   RouteConfig{MaxRounds: 2},
	})
	steps(f, clk, 2)

	// Exhaust both members' buckets.
	if _, err := f.Balancer.Submit(fedReq("a", 1, 512, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Balancer.Submit(fedReq("b", 1, 512, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Balancer.Submit(fedReq("c", 1, 512, 1)); err == nil {
		t.Fatal("submit succeeded with every member throttling")
	}
	if f.Stats.Get(metrics.RouteFailures) != 1 {
		t.Fatalf("route failures %d, want 1", f.Stats.Get(metrics.RouteFailures))
	}
	if f.Stats.Get(metrics.RouteRetries) == 0 {
		t.Fatal("no retry rounds counted before giving up")
	}
	if _, ok := f.Balancer.Home("c"); ok {
		t.Fatal("failed submission left a ledger entry")
	}
}

// TestAnsweredRequestsKeepSlowMemberAlive: a member stalls every second
// request, and each round sends it one request besides the probe (a
// client's status read of the app it homes, after the round). One extra
// read up front puts every probe on a stalled request. The member still
// answers half its requests, so it is alive: the answered reads must keep
// its probe misses from ever being consecutive, however the requests
// interleave.
func TestAnsweredRequestsKeepSlowMemberAlive(t *testing.T) {
	f, clk := testFleet(t, FleetConfig{Members: 1, NodesPerMember: 4})
	steps(f, clk, 5) // learn a baseline cadence
	if _, err := f.Balancer.Submit(fedReq("app-a", 1, 512, 1)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	steps(f, clk, 2)
	f.Scout.Member("cluster-0").Gate.Slow(30*time.Millisecond, 2)
	if _, err := f.Balancer.Status("app-a"); err != nil {
		t.Fatalf("status: %v", err)
	}
	misses := f.Stats.Get(metrics.ProbeMisses)
	const rounds = 20
	for i := 0; i < rounds; i++ {
		steps(f, clk, 1)
		if st := f.Scout.State("cluster-0", clk.Now()); st == Dead {
			t.Fatalf("round %d: a member answering every second request confirmed dead", i)
		}
		if _, err := f.Balancer.Status("app-a"); err != nil {
			t.Fatalf("round %d: status: %v", i, err)
		}
	}
	if got := f.Stats.Get(metrics.ProbeMisses) - misses; got != rounds {
		t.Fatalf("%d of %d probes stalled, want every one: the interleaving under test never formed", got, rounds)
	}
	if n := f.Stats.Get(metrics.DeadConfirms); n != 0 {
		t.Fatalf("dead confirms %d, want 0", n)
	}
}

// TestAuditIsNoSignOfLife: Audit observes and changes nothing. Its reads
// of a member whose every probe times out (but whose longer-deadline
// reads are answered) must not clear the probe misses, so three probe
// rounds with an Audit between each still confirm the member dead.
func TestAuditIsNoSignOfLife(t *testing.T) {
	f, clk := testFleet(t, FleetConfig{Members: 1, NodesPerMember: 4})
	steps(f, clk, 5) // learn a baseline cadence
	if _, err := f.Balancer.Submit(fedReq("app-a", 1, 512, 1)); err != nil {
		t.Fatalf("submit: %v", err)
	}
	steps(f, clk, 2)
	f.Scout.Member("cluster-0").Gate.Slow(30*time.Millisecond, 1)
	var dead []string
	for i := 0; i < ConfirmMisses; i++ {
		if rep := f.Balancer.Audit(clk.Now()); rep.Placed != 1 {
			t.Fatalf("audit %+v: the member's reads were not answered", rep)
		}
		clk.Advance(50 * time.Millisecond)
		dead = f.Scout.ProbeAll(clk.Now())
	}
	if len(dead) != 1 || dead[0] != "cluster-0" {
		t.Fatalf("after %d missed probes with audits between them: newly dead %v, want [cluster-0]", ConfirmMisses, dead)
	}
}
