package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/core"
	"medea/internal/journal"
	"medea/internal/lra"
	"medea/internal/metrics"
	"medea/internal/resource"
)

// fakeClock is a manual time source shared by the server and the tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(20000, 0).UTC()} }

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

// testServer builds a server over a small cluster with the NC heuristic
// (fast, deterministic) and a manual clock. The loop is driven by
// explicit Step calls.
func testServer(t *testing.T, cfg Config, coreCfg core.Config) (*Server, *httptest.Server, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	cfg.Clock = clk.Now
	cl := cluster.Grid(16, 4, resource.New(16384, 16))
	if coreCfg.Interval == 0 {
		coreCfg.Interval = 100 * time.Millisecond
	}
	med := core.New(cl, lra.NewNodeCandidates(), coreCfg)
	s := New(med, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, clk
}

func submitReq(id string, priority int, timeoutMs int64) SubmitRequest {
	return SubmitRequest{
		ID:        id,
		Groups:    []GroupSpec{{Name: "w", Count: 2, MemoryMB: 1024, VCores: 1}},
		Priority:  priority,
		TimeoutMs: timeoutMs,
	}
}

func doSubmit(t *testing.T, ts *httptest.Server, req SubmitRequest, tenant string) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	hr, err := http.NewRequest("POST", ts.URL+"/v1/lras", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	if tenant != "" {
		hr.Header.Set("X-Medea-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	resp.Body.Close()
	return resp
}

func getStatus(t *testing.T, ts *httptest.Server, id string) (int, StatusResponse) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/lras/" + id)
	if err != nil {
		t.Fatalf("status: %v", err)
	}
	defer resp.Body.Close()
	var sr StatusResponse
	_ = json.NewDecoder(resp.Body).Decode(&sr)
	return resp.StatusCode, sr
}

// TestSubmitStatusRemoveRoundTrip drives the basic lifecycle over HTTP:
// queued → deployed (with containers) → removed → 404 on resubmit check.
func TestSubmitStatusRemoveRoundTrip(t *testing.T) {
	s, ts, clk := testServer(t, Config{}, core.Config{})

	if resp := doSubmit(t, ts, submitReq("svc-1", 0, 0), "team-a"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	if code, sr := getStatus(t, ts, "svc-1"); code != 200 || sr.State != "queued" {
		t.Fatalf("pre-cycle status %d %q, want 200 queued", code, sr.State)
	}
	clk.Advance(time.Second)
	s.Step()
	code, sr := getStatus(t, ts, "svc-1")
	if code != 200 || sr.State != "deployed" {
		t.Fatalf("post-cycle status %d %q, want 200 deployed", code, sr.State)
	}
	if len(sr.Containers) != 2 {
		t.Fatalf("deployed with %d containers, want 2", len(sr.Containers))
	}

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/lras/svc-1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("remove: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove status %d, want 200", resp.StatusCode)
	}
	if code, sr := getStatus(t, ts, "svc-1"); code != 200 || sr.State != "removed" {
		t.Fatalf("post-remove status %d %q, want 200 removed", code, sr.State)
	}
	if code, _ := getStatus(t, ts, "nope"); code != http.StatusNotFound {
		t.Fatalf("unknown app status %d, want 404", code)
	}
	if s.Stats.Get(metrics.Admitted) != 1 || s.Stats.Get(metrics.Removed) != 1 {
		t.Fatalf("stats admitted=%d removed=%d, want 1/1", s.Stats.Get(metrics.Admitted), s.Stats.Get(metrics.Removed))
	}
}

// TestTenantThrottling: the second immediate submit from a tenant with a
// one-token burst gets 429 with a Retry-After hint, while another tenant
// is unaffected.
func TestTenantThrottling(t *testing.T) {
	_, ts, _ := testServer(t, Config{RateLimit: RateLimitConfig{GlobalRate: 2, Burst: 1}}, core.Config{})
	if resp := doSubmit(t, ts, submitReq("a-1", 0, 0), "team-a"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit %d, want 202", resp.StatusCode)
	}
	resp := doSubmit(t, ts, submitReq("a-2", 0, 0), "team-a")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("throttled response missing Retry-After")
	}
	if resp := doSubmit(t, ts, submitReq("b-1", 0, 0), "team-b"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("other tenant submit %d, want 202", resp.StatusCode)
	}
}

// TestAdmissionShedsOnBacklog: once the backlog reaches the high
// watermark, submits are rejected fast with 429 + Retry-After, and
// resume only after the backlog falls to the low watermark.
func TestAdmissionShedsOnBacklog(t *testing.T) {
	s, ts, clk := testServer(t, Config{
		Admission: AdmissionConfig{QueueHigh: 2, QueueLow: 1},
	}, core.Config{})
	for i := 0; i < 2; i++ {
		if resp := doSubmit(t, ts, submitReq(fmt.Sprintf("q-%d", i), 0, 0), ""); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d, want 202", i, resp.StatusCode)
		}
	}
	resp := doSubmit(t, ts, submitReq("q-over", 0, 0), "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload submit %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}
	if s.Stats.Get(metrics.ShedOverload) != 1 {
		t.Fatalf("ShedOverload = %d, want 1", s.Stats.Get(metrics.ShedOverload))
	}
	// A cycle drains the backlog; admission recovers (2 -> 0 <= low 1).
	clk.Advance(time.Second)
	s.Step()
	if resp := doSubmit(t, ts, submitReq("q-after", 0, 0), ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-recovery submit %d, want 202", resp.StatusCode)
	}
}

// TestQueueShedsLowestPriorityFirst: a full bounded queue evicts the
// lowest-priority queued entry for a higher-priority arrival, and
// rejects arrivals that outrank nothing.
func TestQueueShedsLowestPriorityFirst(t *testing.T) {
	s, ts, _ := testServer(t, Config{
		QueueCap:  2,
		Admission: AdmissionConfig{QueueHigh: 1000, QueueLow: 999},
	}, core.Config{})
	doSubmit(t, ts, submitReq("low", 1, 0), "")
	doSubmit(t, ts, submitReq("mid", 5, 0), "")
	// Equal priority: rejected, nothing outranked.
	resp := doSubmit(t, ts, submitReq("equal", 1, 0), "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("equal-priority submit %d, want 503", resp.StatusCode)
	}
	// Higher priority: evicts "low".
	resp = doSubmit(t, ts, submitReq("high", 9, 0), "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("high-priority submit %d, want 202", resp.StatusCode)
	}
	if code, sr := getStatus(t, ts, "low"); code != 200 || sr.State != "shed" {
		t.Fatalf("victim status %d %q, want 200 shed", code, sr.State)
	}
	if s.Stats.Get(metrics.ShedQueueFull) != 2 {
		t.Fatalf("ShedQueueFull = %d (reject + eviction), want 2", s.Stats.Get(metrics.ShedQueueFull))
	}
	for _, id := range []string{"mid", "high"} {
		if code, sr := getStatus(t, ts, id); code != 200 || sr.State != "queued" {
			t.Fatalf("%s status %d %q, want 200 queued", id, code, sr.State)
		}
	}
}

// TestDeadlineExpiryInQueue: a submission whose timeout passes before a
// cycle reaches it is dropped and reported expired.
func TestDeadlineExpiryInQueue(t *testing.T) {
	s, ts, clk := testServer(t, Config{}, core.Config{})
	doSubmit(t, ts, submitReq("hurry", 0, 50), "")
	clk.Advance(200 * time.Millisecond) // past the 50ms deadline
	s.Step()
	if code, sr := getStatus(t, ts, "hurry"); code != 200 || sr.State != "expired" {
		t.Fatalf("status %d %q, want 200 expired", code, sr.State)
	}
	if s.Stats.Get(metrics.Expired) != 1 {
		t.Fatalf("Expired = %d, want 1", s.Stats.Get(metrics.Expired))
	}
}

// captureAlg records the solver budget each Place invocation saw and
// declines to place anything.
type captureAlg struct {
	mu      sync.Mutex
	budgets []time.Duration
}

func (a *captureAlg) Name() string { return "capture" }

func (a *captureAlg) Place(state *cluster.Cluster, apps []*lra.Application, active []constraint.Entry, opts lra.Options) *lra.Result {
	a.mu.Lock()
	a.budgets = append(a.budgets, opts.SolverBudget)
	a.mu.Unlock()
	res := &lra.Result{}
	for _, app := range apps {
		res.Placements = append(res.Placements, lra.Placement{AppID: app.ID})
	}
	return res
}

func (a *captureAlg) seen() []time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]time.Duration(nil), a.budgets...)
}

// TestDeadlinePropagationClampsSolverBudget: a queued request deadline
// tightens the cycle's solver budget below the configured one, and the
// base budget is restored afterwards.
func TestDeadlinePropagationClampsSolverBudget(t *testing.T) {
	clk := newFakeClock()
	alg := &captureAlg{}
	cl := cluster.Grid(16, 4, resource.New(16384, 16))
	med := core.New(cl, alg, core.Config{
		Interval:         100 * time.Millisecond,
		SolverBudget:     5 * time.Second,
		MaxRetries:       -1, // reject "tight" after its one failed cycle
		BreakerThreshold: -1,
	})
	s := New(med, Config{Clock: clk.Now})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	doSubmit(t, ts, submitReq("tight", 0, 200), "")
	clk.Advance(10 * time.Millisecond)
	s.Step()
	budgets := alg.seen()
	if len(budgets) != 1 {
		t.Fatalf("algorithm ran %d times, want 1", len(budgets))
	}
	if budgets[0] <= 0 || budgets[0] > 200*time.Millisecond {
		t.Fatalf("cycle solver budget %v, want in (0, 200ms] (clamped by request deadline)", budgets[0])
	}
	if got := med.SolverBudget(); got != 5*time.Second {
		t.Fatalf("base solver budget %v after cycle, want restored 5s", got)
	}

	// A submission without a deadline runs at the full configured budget.
	doSubmit(t, ts, submitReq("easy", 0, 0), "")
	clk.Advance(time.Second)
	s.Step()
	budgets = alg.seen()
	if len(budgets) < 2 {
		t.Fatalf("algorithm ran %d times, want >= 2", len(budgets))
	}
	if budgets[len(budgets)-1] != 5*time.Second {
		t.Fatalf("deadline-free cycle budget %v, want the configured 5s", budgets[len(budgets)-1])
	}
}

// TestGracefulDrain: drain stops admission (503 on submit, healthz
// degraded), flushes the queue into the journaled core, checkpoints, and
// a recovery over the same journal loses nothing: deployed apps stay
// deployed and flushed-but-unplaced apps come back pending.
func TestGracefulDrain(t *testing.T) {
	clk := newFakeClock()
	cl := cluster.Grid(16, 4, resource.New(16384, 16))
	med := core.New(cl, lra.NewNodeCandidates(), core.Config{Interval: 100 * time.Millisecond})
	jnl := journal.NewMemory()
	if err := med.AttachJournal(jnl, clk.Now()); err != nil {
		t.Fatalf("AttachJournal: %v", err)
	}
	s := New(med, Config{Clock: clk.Now})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Deploy two apps, then queue one more that no cycle will reach
	// before the drain (cancelled ctx skips the final cycle).
	doSubmit(t, ts, submitReq("run-1", 0, 0), "")
	doSubmit(t, ts, submitReq("run-2", 0, 0), "")
	clk.Advance(time.Second)
	s.Step()
	for _, id := range []string{"run-1", "run-2"} {
		if code, sr := getStatus(t, ts, id); code != 200 || sr.State != "deployed" {
			t.Fatalf("%s status %d %q, want deployed", id, code, sr.State)
		}
	}
	doSubmit(t, ts, submitReq("late", 0, 0), "")

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Shutdown(cancelled); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if !s.shuttingDown.Load() {
		t.Fatal("shuttingDown = false after Shutdown")
	}
	if s.Stats.Get(metrics.DrainFlushed) != 1 {
		t.Fatalf("DrainFlushed = %d, want 1 (the queued app)", s.Stats.Get(metrics.DrainFlushed))
	}
	if resp := doSubmit(t, ts, submitReq("too-late", 0, 0), ""); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining %d, want 503", resp.StatusCode)
	}
	hc, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	hc.Body.Close()
	if hc.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining %d, want 503", hc.StatusCode)
	}

	// Recovery over the same journal and live cluster: zero committed
	// placements lost, the flushed app back in the pending queue.
	rec, err := core.Recover(jnl, cl, lra.NewNodeCandidates(), core.Config{Interval: 100 * time.Millisecond}, clk.Now())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	for _, id := range []string{"run-1", "run-2"} {
		if _, ok := rec.Deployed(id); !ok {
			t.Errorf("recovered instance lost deployed app %s", id)
		}
	}
	if _, ok := rec.PendingRetries("late"); !ok {
		t.Errorf("recovered instance lost the drain-flushed pending app; pending=%v", rec.PendingApps())
	}
}

// TestStatsEndpoint: /v1/stats reflects counters, queue depth and
// tenants.
func TestStatsEndpoint(t *testing.T) {
	s, ts, clk := testServer(t, Config{RateLimit: RateLimitConfig{GlobalRate: 100, Burst: 10}}, core.Config{})
	doSubmit(t, ts, submitReq("x-1", 0, 0), "team-x")
	clk.Advance(time.Second)
	s.Step()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	var sr StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	if sr.Admitted != 1 || sr.Deployed != 1 || sr.Draining {
		t.Fatalf("stats %+v, want admitted=1 deployed=1 draining=false", sr)
	}
	if len(sr.Tenants) != 1 || sr.Tenants[0].Tenant != "team-x" {
		t.Fatalf("stats tenants %+v, want team-x", sr.Tenants)
	}
}
