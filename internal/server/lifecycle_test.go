package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/core"
	"medea/internal/lra"
	"medea/internal/resource"
)

var update = flag.Bool("update", false, "rewrite testdata/lifecycle.golden from this run")

// script drives one server through its handler, request by request on
// the manual clock, and writes down everything a client could see.
type script struct {
	t   *testing.T
	s   *Server
	clk *fakeClock
	out *bytes.Buffer
}

func newScript(t *testing.T, out *bytes.Buffer, name string, alg lra.Algorithm, cfg Config, coreCfg core.Config) *script {
	t.Helper()
	clk := newFakeClock()
	cfg.Clock = clk.Now
	if coreCfg.Interval == 0 {
		coreCfg.Interval = 100 * time.Millisecond
	}
	med := core.New(cluster.Grid(16, 4, resource.New(16384, 16)), alg, coreCfg)
	fmt.Fprintf(out, "\n# %s\n", name)
	return &script{t: t, s: New(med, cfg), clk: clk, out: out}
}

// do sends one request and records its status code, Retry-After and
// body. body is marshalled as JSON unless it is already a string.
func (sc *script) do(method, path string, body any, tenant string) {
	sc.t.Helper()
	var payload []byte
	switch b := body.(type) {
	case nil:
	case string:
		payload = []byte(b)
	default:
		var err error
		if payload, err = json.Marshal(b); err != nil {
			sc.t.Fatalf("marshal: %v", err)
		}
	}
	req := httptest.NewRequest(method, path, bytes.NewReader(payload))
	if tenant != "" {
		req.Header.Set("X-Medea-Tenant", tenant)
	}
	rec := httptest.NewRecorder()
	sc.s.Handler().ServeHTTP(rec, req)
	fmt.Fprintf(sc.out, "%s %s", method, path)
	if tenant != "" {
		fmt.Fprintf(sc.out, " tenant=%s", tenant)
	}
	if payload != nil {
		fmt.Fprintf(sc.out, " %s", payload)
	}
	fmt.Fprintf(sc.out, "\n  -> %d", rec.Code)
	if ra := rec.Header().Get("Retry-After"); ra != "" {
		fmt.Fprintf(sc.out, " retry-after=%s", ra)
	}
	fmt.Fprintf(sc.out, " %s\n", strings.TrimSpace(rec.Body.String()))
}

func (sc *script) submit(id string, priority int, timeoutMs int64, tenant string) {
	sc.t.Helper()
	sc.do("POST", "/v1/lras", submitReq(id, priority, timeoutMs), tenant)
}

func (sc *script) status(ids ...string) {
	sc.t.Helper()
	for _, id := range ids {
		sc.do("GET", "/v1/lras/"+id, nil, "")
	}
}

func (sc *script) remove(id string) { sc.t.Helper(); sc.do("DELETE", "/v1/lras/"+id, nil, "") }

func (sc *script) reserve(id string, memMB, vcores, ttlMs int64) {
	sc.t.Helper()
	sc.do("POST", "/v1/reservations", ReserveRequest{ID: id, MemMB: memMB, VCores: vcores, TTLMs: ttlMs}, "")
}

func (sc *script) stats() { sc.t.Helper(); sc.do("GET", "/v1/stats", nil, "") }

// step advances the clock, runs one loop iteration and records the
// stats a client would read after it.
func (sc *script) step(advance time.Duration) {
	sc.t.Helper()
	sc.clk.Advance(advance)
	sc.s.Step()
	fmt.Fprintf(sc.out, "step +%s\n", advance)
	sc.stats()
}

// TestServerLifecycleGolden pins what the serving layer tells its
// clients over an app's whole life: every status code, body and
// Retry-After of a scripted request sequence, /v1/stats after every
// loop iteration, and /v1/report once at the end. The script is
// sequential and runs on the manual clock, so the record is the same
// under the default build, GOMAXPROCS=1 and -race.
func TestServerLifecycleGolden(t *testing.T) {
	var out bytes.Buffer
	stuck := SubmitRequest{ID: "stuck", Groups: []GroupSpec{{Name: "w", Count: 1, MemoryMB: 99999, VCores: 1}}}

	// Submit, duplicates, status and removal in every live state, and
	// resubmission of a removed ID.
	sc := newScript(t, &out, "lifecycle", lra.NewNodeCandidates(), Config{}, core.Config{})
	sc.do("POST", "/v1/lras", "{not json", "")
	sc.do("POST", "/v1/lras", SubmitRequest{ID: "empty"}, "")
	sc.submit("a", 0, 0, "team-a")
	sc.submit("a", 0, 0, "team-a") // duplicate while queued
	sc.submit("b", 0, 0, "")
	sc.status("a", "b", "nope")
	sc.remove("b") // while queued
	sc.status("b")
	sc.do("POST", "/v1/lras", stuck, "")
	sc.stats()
	sc.step(time.Second)
	sc.status("a", "stuck")
	sc.submit("a", 0, 0, "")             // duplicate while deployed
	sc.do("POST", "/v1/lras", stuck, "") // duplicate while pending
	sc.step(time.Second)
	sc.status("stuck")
	sc.remove("stuck") // while pending
	sc.status("stuck")
	sc.remove("a") // while deployed
	sc.status("a")
	sc.remove("a")    // already removed
	sc.remove("nope") // unknown
	sc.submit("a", 0, 0, "")
	sc.submit("b", 0, 0, "")
	sc.do("POST", "/v1/lras", stuck, "")
	sc.status("a", "b", "stuck")
	sc.step(time.Second)
	sc.status("a", "b", "stuck")
	sc.do("GET", "/healthz", nil, "")

	// A full queue sheds the lowest priority first; the victim can come
	// back once there is room.
	sc = newScript(t, &out, "priority shed", lra.NewNodeCandidates(),
		Config{QueueCap: 2, Admission: AdmissionConfig{QueueHigh: 1000, QueueLow: 999}}, core.Config{})
	sc.submit("low", 1, 0, "")
	sc.submit("mid", 5, 0, "")
	sc.submit("equal", 1, 0, "") // outranks nothing
	sc.submit("high", 9, 0, "")  // evicts low
	sc.status("low", "mid", "equal", "high")
	sc.submit("low", 1, 0, "") // still full
	sc.status("low")
	sc.stats()
	sc.step(time.Second)
	sc.submit("low", 1, 0, "")
	sc.status("low")
	sc.step(time.Second)
	sc.status("low", "mid", "high")

	// Request deadlines: expiry in the queue, the clamp on the cycle's
	// solver budget, rejection once the retry budget is gone, and
	// resubmission after each. The algorithm places nothing and records
	// the budget it was given.
	alg := &captureAlg{}
	budgets := func() {
		for _, b := range alg.seen() {
			fmt.Fprintf(&out, "solver budget %s\n", b)
		}
		alg.mu.Lock()
		alg.budgets = nil
		alg.mu.Unlock()
	}
	sc = newScript(t, &out, "deadlines, no retries", alg, Config{},
		core.Config{SolverBudget: 5 * time.Second, MaxRetries: -1, BreakerThreshold: -1})
	sc.submit("hurry", 0, 50, "")
	sc.step(200 * time.Millisecond) // past the deadline
	budgets()
	sc.status("hurry")
	sc.submit("hurry", 0, 200, "") // after expired
	sc.status("hurry")
	sc.step(10 * time.Millisecond)
	budgets()
	sc.status("hurry")
	sc.submit("hurry", 0, 0, "") // after rejected
	sc.status("hurry")
	sc.step(time.Second)
	budgets()
	sc.status("hurry")
	sc.remove("hurry") // already rejected

	alg = &captureAlg{}
	sc = newScript(t, &out, "deadlines, retries", alg, Config{},
		core.Config{SolverBudget: 5 * time.Second, BreakerThreshold: -1})
	sc.submit("tight", 0, 250, "")
	sc.submit("loose", 0, 2000, "")
	sc.submit("free", 0, 0, "")
	for i := 0; i < 5; i++ {
		if i == 3 {
			sc.remove("tight") // pending, its deadline passed: loose's is the tightest now
		}
		sc.step(100 * time.Millisecond)
		budgets()
		sc.status("tight", "loose", "free")
	}

	// Capacity reservations, and a reserved submission passing the rate
	// limit and the watermark that turn everyone else away.
	sc = newScript(t, &out, "reservations", lra.NewNodeCandidates(), Config{
		ReservationTTL: time.Second,
		RateLimit:      RateLimitConfig{GlobalRate: 2, Burst: 1},
		Admission:      AdmissionConfig{QueueHigh: 2, QueueLow: 1},
	}, core.Config{})
	sc.stats()
	sc.reserve("", 1024, 1, 0)
	sc.reserve("app-a", 1024, 1, 0)
	sc.stats()
	sc.clk.Advance(900 * time.Millisecond)
	sc.reserve("app-a", 1024, 1, 0) // refresh
	sc.reserve("app-a", 2048, 1, 0) // mismatch
	sc.reserve("app-big", 1<<30, 1, 0)
	sc.submit("x1", 0, 0, "t")
	sc.submit("x2", 0, 0, "t") // t's bucket is empty
	sc.submit("y1", 0, 0, "u")
	sc.submit("y2", 0, 0, "v") // backlog at the high watermark
	sc.submit("app-a", 0, 0, "t")
	sc.reserve("app-a", 1024, 1, 0) // queued: present
	sc.stats()
	sc.step(900 * time.Millisecond) // 1.8s after the first reserve: the refresh held
	sc.reserve("app-a", 1024, 1, 0) // deployed: present
	sc.reserve("app-b", 4096, 4, 0)
	sc.step(500 * time.Millisecond)
	sc.step(600 * time.Millisecond) // app-b's TTL has passed
	sc.reserve("app-c", 2048, 2, 5000)
	sc.do("DELETE", "/v1/reservations/app-c", nil, "")
	sc.do("DELETE", "/v1/reservations/app-c", nil, "")
	sc.remove("x1")
	sc.reserve("x1", 1024, 1, 0) // a removed ID can be reserved for
	sc.reserve("app-d", 1024, 1, 0)
	sc.do("POST", "/v1/drain", nil, "")
	sc.stats()
	sc.submit("z", 0, 0, "w")
	sc.reserve("app-e", 1024, 1, 0)
	sc.do("GET", "/healthz", nil, "")
	sc.status("app-a", "x1")
	sc.do("DELETE", "/v1/drain", nil, "")
	sc.do("GET", "/healthz", nil, "")
	sc.clk.Advance(10 * time.Second)
	sc.submit("z", 0, 0, "w")
	sc.step(time.Second)
	sc.status("z")

	// Shutdown: a submit that passed the gate before the shutdown began
	// finds the queue closed; what was queued is flushed into the core
	// and gets the final cycle; reads and removals keep working.
	sc = newScript(t, &out, "shutdown", lra.NewNodeCandidates(), Config{}, core.Config{})
	sc.submit("run", 0, 0, "")
	sc.step(time.Second)
	sc.submit("late", 0, 0, "")
	closeSubmitQueue(sc.s)
	sc.submit("racing", 0, 0, "")
	if err := sc.s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	fmt.Fprintf(&out, "shutdown\n")
	sc.stats()
	sc.submit("too-late", 0, 0, "")
	sc.status("run", "late", "racing", "too-late")
	sc.do("GET", "/healthz", nil, "")
	sc.remove("late")
	sc.status("late")
	// The outcome feed: from the start, past the first outcome, and a
	// cursor that is not a number.
	sc.do("GET", "/v1/outcomes?after=0", nil, "")
	sc.do("GET", "/v1/outcomes?after=1", nil, "")
	sc.do("GET", "/v1/outcomes?after=x", nil, "")
	// The scout's capacity report.
	sc.do("GET", "/v1/report", nil, "")

	const golden = "testdata/lifecycle.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		gotLines, wantLines := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", golden, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("%s differs in length: got %d lines, want %d", golden, len(gotLines), len(wantLines))
	}
}

// closeSubmitQueue is what a shutdown's final hand-off leaves behind; on
// its own it is the state a racing submit sees.
func closeSubmitQueue(s *Server) {
	s.led.mu.Lock()
	defer s.led.mu.Unlock()
	s.led.closed = true
}
