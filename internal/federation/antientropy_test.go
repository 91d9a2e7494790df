package federation

import (
	"cmp"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"medea/internal/core"
	"medea/internal/metrics"
	"medea/internal/server"
)

// readTap sits in front of a member's transport. It counts the status
// reads the member is sent (GET /v1/lras and GET /v1/lras/{id}) and, with
// old set, answers the batched one 405, as a member from before that
// route does. Step-driven fleets only: the count is not synchronised.
type readTap struct {
	next  http.RoundTripper
	old   bool
	reads int
}

func tapReads(m *Member, old bool) *readTap {
	t := &readTap{next: m.client.Transport, old: old}
	m.client.Transport = t
	return t
}

func (t *readTap) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Method == http.MethodGet && strings.HasPrefix(req.URL.Path, "/v1/lras") {
		t.reads++
		if t.old && req.URL.Path == "/v1/lras" {
			return &http.Response{
				StatusCode: http.StatusMethodNotAllowed,
				Header:     http.Header{"Allow": {"POST"}},
				Body:       io.NopCloser(strings.NewReader("Method Not Allowed\n")),
				Request:    req,
			}, nil
		}
	}
	return t.next.RoundTrip(req)
}

// TestAntiEntropyVerdicts runs the anti-entropy sweep end to end on a
// one-member fleet: something happens to cluster-0, which homes every
// app, and two control rounds later its answer has decided whether each
// app went back through placement. It fails a sweep that takes "" for a
// known state (the restarted member's app stays lost) and one that takes
// a non-200 answer for "every ID unknown" (the old member's apps are
// re-placed).
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
			name:    "partitioned",
			apps:    40,
			rounds:  3,
			lose:    func(t *testing.T, f *Fleet, _ []string) { f.Scout.Member("cluster-0").Gate.Partition(true) },
			recheck: homeCheckBatch,
			audit:   AuditReport{Routed: 40, OnDead: 40},
		},
		{
			name:    "answering the batched read 405",
			apps:    40,
			rounds:  3,
			lose:    func(t *testing.T, f *Fleet, _ []string) { tapReads(f.Members[0], true) },
			recheck: homeCheckBatch,
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

// TestAntiEntropyOneReadPerHome is the wall on the sweep's request count:
// with 66 apps placed over three members, one control round sends each
// live home at most one status read, however many of its apps the round
// verifies. Reading each app on its own sends 32.
func TestAntiEntropyOneReadPerHome(t *testing.T) {
	f, clk := testFleet(t, FleetConfig{Members: 3})
	steps(f, clk, 2)
	homed := make(map[string]int)
	for i := 0; i < 66; i++ {
		home, err := f.Balancer.Submit(fedReq(fmt.Sprintf("app-%02d", i), 1, 512, 1))
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		homed[home]++
		steps(f, clk, 1) // fresh reports, so routing spreads the apps
	}
	if len(homed) != 3 {
		t.Fatalf("apps homed %v, want on all three members", homed)
	}
	taps := make([]*readTap, len(f.Members))
	for i, m := range f.Members {
		taps[i] = tapReads(m, false)
	}
	clk.Advance(50 * time.Millisecond)
	f.Balancer.Step(clk.Now())
	total := 0
	for i, tap := range taps {
		if tap.reads > 1 {
			t.Errorf("%s got %d status reads in one round, want at most 1", f.Members[i].ID, tap.reads)
		}
		total += tap.reads
	}
	if total == 0 {
		t.Fatal("no status read in the round: the sweep did not run")
	}
}
