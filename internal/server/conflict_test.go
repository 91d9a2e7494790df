package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/core"
	"medea/internal/journal"
	"medea/internal/lra"
	"medea/internal/metrics"
	"medea/internal/resource"
)

// TestResubmitConflictsAfterQueueDrains: duplicate detection must not
// stop at the submit queue. Once an entry drains into the core (one
// poll), a resubmission of the same ID has to answer 409 whether the app
// is pending or deployed — federation balancers reconcile ambiguous
// timed-out attempts off that answer, and a 202 here would queue a
// second copy.
func TestResubmitConflictsAfterQueueDrains(t *testing.T) {
	s, ts, clk := testServer(t, Config{}, core.Config{})

	// An app no node can hold: it drains into the core and stays pending
	// (requeued every cycle) instead of deploying.
	big := SubmitRequest{ID: "stuck", Groups: []GroupSpec{{Name: "w", Count: 1, MemoryMB: 99999, VCores: 1}}}
	if resp := doSubmit(t, ts, big, ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	clk.Advance(time.Second)
	s.Step()
	if code, sr := getStatus(t, ts, "stuck"); code != 200 || sr.State != "pending" {
		t.Fatalf("status %d %q, want 200 pending", code, sr.State)
	}
	if resp := doSubmit(t, ts, big, ""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("resubmit of core-pending app: status %d, want 409", resp.StatusCode)
	}
	if got := s.med.PendingLRAs(); got != 1 {
		t.Fatalf("core pending = %d, want 1 (no second copy queued)", got)
	}

	// Same for a deployed app.
	if resp := doSubmit(t, ts, submitReq("svc-1", 0, 0), ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit svc-1: %d", resp.StatusCode)
	}
	clk.Advance(time.Second)
	s.Step()
	if code, sr := getStatus(t, ts, "svc-1"); code != 200 || sr.State != "deployed" {
		t.Fatalf("svc-1 status %d %q, want deployed", code, sr.State)
	}
	if resp := doSubmit(t, ts, submitReq("svc-1", 0, 0), ""); resp.StatusCode != http.StatusConflict {
		t.Fatalf("resubmit of deployed app: status %d, want 409", resp.StatusCode)
	}
}

// TestRemoveWithdrawsCorePendingApp: DELETE must reach an app that
// drained out of the submit queue but has not deployed — before the
// withdraw path, such apps answered 404 on DELETE while GET said
// "pending", and a federation balancer could never clean up a duplicate
// parked in that state.
func TestRemoveWithdrawsCorePendingApp(t *testing.T) {
	s, ts, clk := testServer(t, Config{}, core.Config{})

	big := SubmitRequest{ID: "stuck", Groups: []GroupSpec{{Name: "w", Count: 1, MemoryMB: 99999, VCores: 1}}}
	if resp := doSubmit(t, ts, big, ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	clk.Advance(time.Second)
	s.Step()
	if code, sr := getStatus(t, ts, "stuck"); code != 200 || sr.State != "pending" {
		t.Fatalf("status %d %q, want 200 pending", code, sr.State)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/lras/stuck", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE of core-pending app: status %d, want 200", resp.StatusCode)
	}
	if got := s.med.PendingLRAs(); got != 0 {
		t.Fatalf("core pending = %d after withdraw, want 0", got)
	}
	if code, sr := getStatus(t, ts, "stuck"); code != 200 || sr.State != "removed" {
		t.Fatalf("post-withdraw status %d %q, want 200 removed", code, sr.State)
	}
	// The withdrawn ID is free for a fresh submission.
	if resp := doSubmit(t, ts, submitReq("stuck", 0, 0), ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit after withdraw: status %d, want 202", resp.StatusCode)
	}
	clk.Advance(time.Second)
	s.Step()
	if code, sr := getStatus(t, ts, "stuck"); code != 200 || sr.State != "deployed" {
		t.Fatalf("resubmitted app status %d %q, want deployed", code, sr.State)
	}
}

// TestConcurrentSubmitOneAccept: of eight simultaneous submissions of one
// ID exactly one is accepted and seven are told it is a duplicate. Before
// the ledger claimed and queued an ID in one step, the duplicate check
// and the push were two, and two copies could pass the check together:
// both got a 202 and the second became a silent submit_errors count.
func TestConcurrentSubmitOneAccept(t *testing.T) {
	s, _, _ := testServer(t, Config{QueueCap: 4096}, core.Config{})
	const workers, rounds = 8, 200
	body := func(id string) string {
		return fmt.Sprintf(`{"id":%q,"groups":[{"name":"w","count":1,"memoryMB":64,"vcores":1}]}`, id)
	}
	for round := 0; round < rounds; round++ {
		id := fmt.Sprintf("dup-%d", round)
		codes := make([]int, workers)
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer done.Done()
				req := httptest.NewRequest("POST", "/v1/lras", strings.NewReader(body(id)))
				rec := httptest.NewRecorder()
				start.Wait()
				s.Handler().ServeHTTP(rec, req)
				codes[w] = rec.Code
			}(w)
		}
		start.Done()
		done.Wait()
		accepted, duplicate := 0, 0
		for _, c := range codes {
			switch c {
			case http.StatusAccepted:
				accepted++
			case http.StatusConflict:
				duplicate++
			}
		}
		if accepted != 1 || duplicate != workers-1 {
			t.Fatalf("round %d: codes %v, want one 202 and %d 409s", round, codes, workers-1)
		}
	}
	if got := s.Stats.Get(metrics.Admitted); got != rounds {
		t.Fatalf("admitted %d, want %d", got, rounds)
	}
}

// TestFreshServerKnowsCoreApps: a server built over a core that already
// holds apps — what a restart does after recovering the core from its
// journal — answers for them before its first loop iteration: 409 to a
// resubmission of a pending or deployed ID, the right status for each,
// "present" to a reservation. The mirror the ledger replaced started
// empty and was filled by the first Step; until then a resubmission got a
// 202 and became a silent submit_errors count.
func TestFreshServerKnowsCoreApps(t *testing.T) {
	clk := newFakeClock()
	cl := cluster.Grid(16, 4, resource.New(16384, 16))
	coreCfg := core.Config{Interval: 100 * time.Millisecond, MaxRetries: 1}
	med := core.New(cl, lra.NewNodeCandidates(), coreCfg)
	jnl := journal.NewMemory()
	if err := med.AttachJournal(jnl, clk.Now()); err != nil {
		t.Fatalf("attach journal: %v", err)
	}
	s := New(med, Config{Clock: clk.Now})
	ts := httptest.NewServer(s.Handler())
	tooBig := func(id string) SubmitRequest {
		return SubmitRequest{ID: id, Groups: []GroupSpec{{Name: "w", Count: 1, MemoryMB: 99999, VCores: 1}}}
	}
	doSubmit(t, ts, tooBig("gone"), "")
	for i := 0; i < 2; i++ { // one retry, then rejected
		clk.Advance(time.Second)
		s.Step()
	}
	doSubmit(t, ts, submitReq("svc", 0, 0), "")
	doSubmit(t, ts, tooBig("stuck"), "")
	clk.Advance(time.Second)
	s.Step()
	for id, want := range map[string]string{"gone": "rejected", "svc": "deployed", "stuck": "pending"} {
		if code, sr := getStatus(t, ts, id); code != 200 || sr.State != want {
			t.Fatalf("before the restart %s is %d %q, want 200 %q", id, code, sr.State, want)
		}
	}
	ts.Close()

	rec, err := core.Recover(jnl, cl, lra.NewNodeCandidates(), coreCfg, clk.Now())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	s2 := New(rec, Config{Clock: clk.Now})
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)

	// No Step yet.
	if resp := doSubmit(t, ts2, submitReq("svc", 0, 0), ""); resp.StatusCode != http.StatusConflict {
		t.Errorf("resubmission of a deployed app: %d, want 409", resp.StatusCode)
	}
	if resp := doSubmit(t, ts2, tooBig("stuck"), ""); resp.StatusCode != http.StatusConflict {
		t.Errorf("resubmission of a pending app: %d, want 409", resp.StatusCode)
	}
	if code, sr := getStatus(t, ts2, "svc"); code != 200 || sr.State != "deployed" || len(sr.Containers) != 2 {
		t.Errorf("svc: %d %+v, want 200 deployed with 2 containers", code, sr)
	}
	if code, sr := getStatus(t, ts2, "stuck"); code != 200 || sr.State != "pending" || sr.Retries != 1 {
		t.Errorf("stuck: %d %+v, want 200 pending with 1 retry", code, sr)
	}
	if code, sr := getStatus(t, ts2, "gone"); code != 200 || sr.State != "rejected" {
		t.Errorf("gone: %d %+v, want 200 rejected", code, sr)
	}
	if code, rr := doReserve(t, ts2, ReserveRequest{ID: "svc", MemMB: 1024, VCores: 1}); code != 200 || rr.State != "present" {
		t.Errorf("reservation for a deployed app: %d %q, want 200 present", code, rr.State)
	}
	if resp := doSubmit(t, ts2, submitReq("gone", 0, 0), ""); resp.StatusCode != http.StatusAccepted {
		t.Errorf("resubmission of a rejected app: %d, want 202", resp.StatusCode)
	}
	if got := s2.Stats.Get(metrics.Admitted); got != 1 {
		t.Errorf("admitted %d, want 1 (only the rejected ID is free)", got)
	}
	clk.Advance(time.Second)
	s2.Step()
	if got := s2.Stats.Get(metrics.SubmitErrors); got != 0 {
		t.Errorf("submit_errors %d after the first Step, want 0", got)
	}
	if code, sr := getStatus(t, ts2, "gone"); code != 200 || sr.State != "deployed" {
		t.Errorf("gone after its resubmission: %d %+v, want 200 deployed", code, sr)
	}
}
