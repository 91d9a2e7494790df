package federation

import (
	"cmp"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"medea/internal/core"
	"medea/internal/metrics"
	"medea/internal/server"
)

// readTap sits in front of a member's handler. It counts the status
// reads the member is sent (GET /v1/lras and GET /v1/lras/{id}), its
// outcome-feed reads, its capacity-report and stats reads and the
// submissions it is sent (POST /v1/lras), and, with old set, answers the
// batched status read 405, as a member from before that route does.
// Step-driven fleets only: the counts are not synchronised.
type readTap struct {
	old                                   bool
	reads, feeds, reports, stats, submits int
}

func tapReads(m *Member, old bool) *readTap {
	t := &readTap{old: old}
	m.wrap = func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t.count(r)
			if t.old && r.Method == http.MethodGet && r.URL.Path == "/v1/lras" {
				w.Header().Set("Allow", http.MethodPost)
				http.Error(w, "Method Not Allowed", http.StatusMethodNotAllowed)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
	return t
}

// count tallies one request.
func (t *readTap) count(r *http.Request) {
	if r.Method == http.MethodPost && r.URL.Path == "/v1/lras" {
		t.submits++
	}
	if r.Method == http.MethodGet {
		switch r.URL.Path {
		case "/v1/outcomes":
			t.feeds++
		case "/v1/report":
			t.reports++
		case "/v1/stats":
			t.stats++
		}
	}
	if r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/lras") {
		t.reads++
	}
}

// TestAntiEntropyVerdicts runs anti-entropy end to end on a one-member
// fleet: something happens to cluster-0, which homes every app, and two
// control rounds later its outcome feed or its answer to a re-list has
// decided whether each app went back through placement. It fails a sweep
// that takes "" for a known state, or a restart that keeps its epoch (the
// restarted member's app stays lost), and one that takes a non-200 answer
// for "every ID unknown" (the re-listed old member's apps are re-placed).
// A partition and a member that would answer the batched read 405 change
// no outcome number, so nothing is queued for a read.
func TestAntiEntropyVerdicts(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   FleetConfig
		apps  int
		memMB int64 // per app (0 = 512)
		// rounds run between the submissions and lose.
		rounds int
		lose   func(t *testing.T, f *Fleet, ids []string)
		// rerouted counts the apps sent back through the degraded path and
		// re-placed from it; recheck is the recheck set's size afterwards.
		rerouted, recheck int
		audit             AuditReport
	}{
		{
			name: "restarted from a journal that never saw the app",
			apps: 1,
			lose: func(t *testing.T, f *Fleet, _ []string) {
				f.Scout.Member("cluster-0").Gate.Crash()
				if err := f.Scout.Member("cluster-0").Restart(f.cfg.Clock()); err != nil {
					t.Fatal(err)
				}
			},
			rerouted: 1,
			audit:    AuditReport{Routed: 1, Placed: 1},
		},
		{
			name:   "removed without the balancer",
			apps:   1,
			rounds: 3,
			lose: func(t *testing.T, f *Fleet, ids []string) {
				if code, err := f.Balancer.call("cluster-0", http.MethodDelete, "/v1/lras/"+ids[0], nil, nil); err != nil || code != http.StatusOK {
					t.Fatalf("delete: status %d, err %v", code, err)
				}
			},
			rerouted: 1,
			audit:    AuditReport{Routed: 1, Placed: 1},
		},
		{
			name: "shed for a higher priority",
			cfg:  FleetConfig{Server: server.Config{QueueCap: 1, Admission: server.AdmissionConfig{QueueHigh: 1000, QueueLow: 999}}},
			apps: 1,
			lose: func(t *testing.T, f *Fleet, _ []string) {
				vip := fedReq("vip", 1, 512, 1)
				vip.Priority = 9
				if code, err := f.Balancer.call("cluster-0", http.MethodPost, "/v1/lras", mustBody(t, vip), nil); err != nil || code != http.StatusAccepted {
					t.Fatalf("vip: status %d, err %v", code, err)
				}
			},
			rerouted: 1,
			audit:    AuditReport{Routed: 1, Placed: 1},
		},
		{
			name:   "rejected by the member's scheduler",
			cfg:    FleetConfig{Core: core.Config{MaxRetries: -1}},
			apps:   1,
			memMB:  999999,
			rounds: 3,
			audit:  AuditReport{Routed: 1, Rejected: 1},
		},
		{
			name:   "partitioned",
			apps:   40,
			rounds: 3,
			lose:   func(t *testing.T, f *Fleet, _ []string) { f.Scout.Member("cluster-0").Gate.Partition(true) },
			audit:  AuditReport{Routed: 40, OnDead: 40},
		},
		{
			name:   "answering the batched read 405",
			apps:   40,
			rounds: 3,
			lose:   func(t *testing.T, f *Fleet, _ []string) { tapReads(f.Members[0], true) },
			audit:  AuditReport{Routed: 40, Placed: 40},
		},
		{
			// A rebuilt balancer has no cursor and re-lists the member: every
			// app is queued, 32 a round are asked for and none is answered.
			name:   "re-listed while answering the batched read 405",
			apps:   40,
			rounds: 3,
			lose: func(t *testing.T, f *Fleet, _ []string) {
				tapReads(f.Members[0], true)
				clear(f.Balancer.cursors)
			},
			recheck: 40,
			audit:   AuditReport{Routed: 40, Placed: 40},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Members = 1
			f, clk := testFleet(t, tc.cfg)
			steps(f, clk, 2)
			ids := make([]string, tc.apps)
			for i := range ids {
				ids[i] = fmt.Sprintf("app-%02d", i)
				if _, err := f.Balancer.Submit(fedReq(ids[i], 1, cmp.Or(tc.memMB, 512), 1)); err != nil {
					t.Fatalf("submit %s: %v", ids[i], err)
				}
			}
			steps(f, clk, tc.rounds)
			if tc.lose != nil {
				tc.lose(t, f, ids)
			}
			steps(f, clk, 2)
			if got := f.Stats.Get(metrics.Rerouted); got != tc.rerouted {
				t.Errorf("rerouted %d, want %d", got, tc.rerouted)
			}
			if got := f.Stats.Get(metrics.DegradedRecovered); got != tc.rerouted {
				t.Errorf("recovered from degraded %d, want %d", got, tc.rerouted)
			}
			if got := len(f.Balancer.recheck); got != tc.recheck {
				t.Errorf("recheck set holds %d, want %d", got, tc.recheck)
			}
			if got := f.Balancer.Audit(clk.Now()); !reflect.DeepEqual(got, tc.audit) {
				t.Errorf("audit %+v, want %+v", got, tc.audit)
			}
		})
	}
}

// TestAntiEntropyReadsFollowOutcomes is the wall on anti-entropy's
// request count: with 66 apps placed over three members, a round in
// which nothing left any member sends no status or feed read at all, and
// a round after one removal sends exactly one feed read, to the member
// the app was removed from. The rotating window it replaced read 32 apps
// a round whatever happened. It caps the scout's probe too: a quiet round
// sends each member one GET /v1/report and no GET /v1/stats, whose body
// carries three times the fields the scout keeps.
func TestAntiEntropyReadsFollowOutcomes(t *testing.T) {
	f, clk := testFleet(t, FleetConfig{Members: 3})
	steps(f, clk, 2)
	homes := make(map[string]string)
	for i := 0; i < 66; i++ {
		id := fmt.Sprintf("app-%02d", i)
		home, err := f.Balancer.Submit(fedReq(id, 1, 512, 1))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		homes[id] = home
		steps(f, clk, 1) // fresh reports, so routing spreads the apps
	}
	taps := make(map[string]*readTap)
	for _, m := range f.Members {
		taps[m.ID] = tapReads(m, false)
	}
	if len(taps) != 3 || len(homes) != 66 {
		t.Fatalf("%d members, %d apps", len(taps), len(homes))
	}
	steps(f, clk, 1)
	for id, tap := range taps {
		if tap.reads != 0 || tap.feeds != 0 {
			t.Errorf("quiet round: %s got %d status and %d feed reads, want none", id, tap.reads, tap.feeds)
		}
		if tap.reports != 1 || tap.stats != 0 {
			t.Errorf("quiet round: %s got %d report and %d stats reads, want 1 and 0", id, tap.reports, tap.stats)
		}
	}
	if err := f.Balancer.Remove("app-07"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	steps(f, clk, 1)
	for id, tap := range taps {
		want := 0
		if id == homes["app-07"] {
			want = 1
		}
		if tap.reads != 0 || tap.feeds != want {
			t.Errorf("round after a removal from %s: %s got %d status and %d feed reads, want 0 and %d", homes["app-07"], id, tap.reads, tap.feeds, want)
		}
	}
}

// TestAntiEntropyLostBeforePlace: a member acknowledges an app and loses
// it before the balancer has recorded its home, and a control round
// runs in between. Shed for a higher priority, the loss is an outcome of
// an entry still being routed: the entry waits in the recheck list until
// it is placed. Restarted from a journal that never saw the app, the
// member has a new epoch and is re-listed while the entry is still being
// routed. Either way the entry is read at its home once placed, and goes
// back through placement. A feed reader that drops outcomes of entries
// it cannot act on yet, or a re-list that skips them, loses the app.
func TestAntiEntropyLostBeforePlace(t *testing.T) {
	for _, tc := range []struct {
		name string
		lose func(t *testing.T, f *Fleet, m *Member, now time.Time)
	}{
		{
			name: "shed for a higher priority",
			lose: func(t *testing.T, f *Fleet, m *Member, _ time.Time) {
				vip := fedReq("vip", 1, 512, 1)
				vip.Priority = 9
				if code, err := f.Balancer.call(m.ID, http.MethodPost, "/v1/lras", mustBody(t, vip), nil); err != nil || code != http.StatusAccepted {
					t.Errorf("vip: status %d, err %v", code, err)
				}
			},
		},
		{
			name: "restarted from a journal that never saw the app",
			lose: func(t *testing.T, _ *Fleet, m *Member, now time.Time) {
				m.Gate.Crash()
				if err := m.Restart(now); err != nil {
					t.Error(err)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, clk := testFleet(t, FleetConfig{Members: 1, Server: server.Config{QueueCap: 1, Admission: server.AdmissionConfig{QueueHigh: 1000, QueueLow: 999}}})
			steps(f, clk, 2)
			m := f.Members[0]
			fired := false
			tapAfter(m, func(req *http.Request) {
				if fired || req.Method != http.MethodPost || req.URL.Path != "/v1/lras" {
					return
				}
				fired = true
				tc.lose(t, f, m, clk.Now())
				clk.Advance(50 * time.Millisecond)
				f.Balancer.Step(clk.Now())
			})
			if _, err := f.Balancer.Submit(fedReq("app-a", 1, 512, 1)); err != nil {
				t.Fatalf("submit: %v", err)
			}
			if !fired {
				t.Fatal("the submission never reached the member")
			}
			steps(f, clk, 2)
			wantReplaced(t, f, clk.Now(), 1, AuditReport{Routed: 1, Placed: 1})
		})
	}
}

// TestAntiEntropyMoveAbortsToRestartedSource: an app is moving when its
// source restarts from a journal that never saw it, and the move then
// aborts back to that source. The re-list at the source's new epoch
// queued the moving entry; once the abort has placed it again it is read
// there, found unknown, and re-placed. A re-list of placed entries alone
// loses the app.
func TestAntiEntropyMoveAbortsToRestartedSource(t *testing.T) {
	f, clk := testFleet(t, FleetConfig{Members: 2})
	steps(f, clk, 2)
	// No member steps between the submission and the restart: the app is
	// still in its home's in-memory queue, which the restart drops.
	home, err := f.Balancer.Submit(fedReq("app-a", 1, 512, 1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	dest := "cluster-0"
	if home == dest {
		dest = "cluster-1"
	}
	if err := f.Balancer.Migrate("app-a", dest); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	// A cordoned destination keeps the move in PREPARE until its retry
	// budget runs out and it aborts.
	if code, err := f.Balancer.call(dest, http.MethodPost, "/v1/drain", nil, nil); err != nil || code != http.StatusOK {
		t.Fatalf("cordon: status %d, err %v", code, err)
	}
	f.Scout.Member(home).Gate.Crash()
	if err := f.Scout.Member(home).Restart(clk.Now()); err != nil {
		t.Fatal(err)
	}
	steps(f, clk, 1)
	if _, _, moving := f.Balancer.MigrationOf("app-a"); !moving {
		t.Fatal("the move ended in the round that re-listed its source")
	}
	for i := 0; i < 20 && f.Stats.Get(metrics.MigrationsAborted) == 0; i++ {
		steps(f, clk, 1)
	}
	if got := f.Stats.Get(metrics.MigrationsAborted); got != 1 {
		t.Fatalf("moves aborted %d, want 1", got)
	}
	steps(f, clk, 2)
	wantReplaced(t, f, clk.Now(), 1, AuditReport{Routed: 1, Placed: 1})
}

// wantReplaced checks that n apps went back through the degraded path
// and were re-placed from it, and the audit at now.
func wantReplaced(t *testing.T, f *Fleet, now time.Time, n int, audit AuditReport) {
	t.Helper()
	if got := f.Stats.Get(metrics.Rerouted); got != n {
		t.Errorf("rerouted %d, want %d", got, n)
	}
	if got := f.Stats.Get(metrics.DegradedRecovered); got != n {
		t.Errorf("recovered from degraded %d, want %d", got, n)
	}
	if got := f.Balancer.Audit(now); !reflect.DeepEqual(got, audit) {
		t.Errorf("audit %+v, want %+v", got, audit)
	}
}

// tapAfter runs after on every request a member serves, once it has
// answered and before the answer reaches the caller.
func tapAfter(m *Member, after func(*http.Request)) {
	m.wrap = func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			next.ServeHTTP(w, r)
			after(r)
		})
	}
}
