package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/core"
	"medea/internal/journal"
	"medea/internal/lra"
	"medea/internal/metrics"
	"medea/internal/resource"
)

func doReserve(t *testing.T, ts *httptest.Server, req ReserveRequest) (int, ReserveResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/reservations", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("reserve: %v", err)
	}
	defer resp.Body.Close()
	var rr ReserveResponse
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusCreated {
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return resp.StatusCode, rr
}

func doUnreserve(t *testing.T, ts *httptest.Server, id string) int {
	t.Helper()
	hr, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/reservations/"+id, nil)
	if err != nil {
		t.Fatalf("request: %v", err)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatalf("unreserve: %v", err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func getStats(t *testing.T, ts *httptest.Server) StatsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	return st
}

// TestReserveHoldsCapacity: a reservation debits the stats' free vector
// so remote fit checks see the hold, and releasing restores it.
func TestReserveHoldsCapacity(t *testing.T) {
	_, ts, _ := testServer(t, Config{}, core.Config{})
	base := getStats(t, ts)

	code, rr := doReserve(t, ts, ReserveRequest{ID: "app-a", MemMB: 4096, VCores: 4})
	if code != http.StatusCreated || rr.State != "reserved" {
		t.Fatalf("reserve: code %d state %q, want 201 reserved", code, rr.State)
	}
	st := getStats(t, ts)
	if st.FreeMemMB != base.FreeMemMB-4096 || st.FreeVCores != base.FreeVCores-4 {
		t.Fatalf("free after reserve = %d/%d, want %d/%d", st.FreeMemMB, st.FreeVCores, base.FreeMemMB-4096, base.FreeVCores-4)
	}
	if st.Reservations != 1 || st.ReservedMemMB != 4096 || st.ReservedVCores != 4 {
		t.Fatalf("reserved fields %d/%d/%d, want 1/4096/4", st.Reservations, st.ReservedMemMB, st.ReservedVCores)
	}

	if code := doUnreserve(t, ts, "app-a"); code != http.StatusOK {
		t.Fatalf("unreserve: code %d, want 200", code)
	}
	st = getStats(t, ts)
	if st.FreeMemMB != base.FreeMemMB || st.Reservations != 0 {
		t.Fatalf("free not restored after release: %+v", st)
	}
	// Releasing again is idempotent.
	if code := doUnreserve(t, ts, "app-a"); code != http.StatusOK {
		t.Fatalf("second unreserve: code %d, want 200", code)
	}
}

// TestReserveIdempotentRefreshAndMismatch: re-reserving the same ID with
// the same demand refreshes the TTL (200), a different demand conflicts
// (409), and a demand beyond free capacity is refused (503).
func TestReserveIdempotentRefreshAndMismatch(t *testing.T) {
	_, ts, clk := testServer(t, Config{ReservationTTL: time.Second}, core.Config{})

	if code, _ := doReserve(t, ts, ReserveRequest{ID: "app-a", MemMB: 1024, VCores: 1}); code != http.StatusCreated {
		t.Fatalf("create: code %d, want 201", code)
	}
	clk.Advance(900 * time.Millisecond)
	code, rr := doReserve(t, ts, ReserveRequest{ID: "app-a", MemMB: 1024, VCores: 1})
	if code != http.StatusOK || rr.State != "reserved" {
		t.Fatalf("refresh: code %d state %q, want 200 reserved", code, rr.State)
	}
	// The refresh restarted the TTL: after another 900ms the hold must
	// still exist (a non-refreshed one would have expired at 1s).
	clk.Advance(900 * time.Millisecond)
	if st := getStats(t, ts); st.Reservations != 1 {
		t.Fatal("refreshed reservation expired on the original deadline")
	}
	if code, _ := doReserve(t, ts, ReserveRequest{ID: "app-a", MemMB: 2048, VCores: 1}); code != http.StatusConflict {
		t.Fatalf("mismatched demand: code %d, want 409", code)
	}
	if code, _ := doReserve(t, ts, ReserveRequest{ID: "app-big", MemMB: 1 << 30, VCores: 1}); code != http.StatusServiceUnavailable {
		t.Fatalf("oversized demand: code %d, want 503", code)
	}
}

// TestReservationExpiresOnTTL: an unused hold is swept once its TTL
// passes, freeing the capacity for others.
func TestReservationExpiresOnTTL(t *testing.T) {
	s, ts, clk := testServer(t, Config{ReservationTTL: time.Second}, core.Config{})
	base := getStats(t, ts)

	if code, _ := doReserve(t, ts, ReserveRequest{ID: "app-a", MemMB: 4096, VCores: 4}); code != http.StatusCreated {
		t.Fatal("reserve failed")
	}
	clk.Advance(500 * time.Millisecond)
	s.Step()
	if st := getStats(t, ts); st.Reservations != 1 {
		t.Fatal("reservation swept before its TTL")
	}
	clk.Advance(600 * time.Millisecond)
	s.Step()
	st := getStats(t, ts)
	if st.Reservations != 0 {
		t.Fatal("reservation not swept after its TTL")
	}
	if st.FreeMemMB != base.FreeMemMB {
		t.Fatalf("capacity not restored after expiry: %d, want %d", st.FreeMemMB, base.FreeMemMB)
	}
	if s.Stats.Get(metrics.ReservationExpired) != 1 {
		t.Fatalf("ReservationExpired = %d, want 1", s.Stats.Get(metrics.ReservationExpired))
	}
}

// TestReservationConsumedOnLanding: once the reserved submission
// arrives, the hold converts into the real allocation — the reservation
// is consumed, not double-counted, and the admission watermarks cannot
// turn the reserved submission away.
func TestReservationConsumedOnLanding(t *testing.T) {
	s, ts, _ := testServer(t, Config{}, core.Config{})

	if code, _ := doReserve(t, ts, ReserveRequest{ID: "app-a", MemMB: 2048, VCores: 2}); code != http.StatusCreated {
		t.Fatal("reserve failed")
	}
	resp := doSubmit(t, ts, submitReq("app-a", 0, 0), "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("reserved submit: code %d, want 202", resp.StatusCode)
	}
	s.Step()
	st := getStats(t, ts)
	if st.Reservations != 0 {
		t.Fatalf("reservation not consumed after landing (still %d held)", st.Reservations)
	}
	if s.Stats.Get(metrics.ReservationConsumed) != 1 {
		t.Fatalf("ReservationConsumed = %d, want 1", s.Stats.Get(metrics.ReservationConsumed))
	}
	// A second reserve for an app already present reports "present"
	// without creating a hold.
	code, rr := doReserve(t, ts, ReserveRequest{ID: "app-a", MemMB: 2048, VCores: 2})
	if code != http.StatusOK || rr.State != "present" {
		t.Fatalf("reserve of present app: code %d state %q, want 200 present", code, rr.State)
	}
	if st := getStats(t, ts); st.Reservations != 0 {
		t.Fatal("reserve of a present app created a hold")
	}
}

// TestReservationsClearedOnRestart: holds are in-memory serving state,
// not journaled truth — a server rebuilt from the journal starts with
// none, and the balancer's PREPARE retry re-reserves.
func TestReservationsClearedOnRestart(t *testing.T) {
	clk := newFakeClock()
	cl := cluster.Grid(16, 4, resource.New(16384, 16))
	coreCfg := core.Config{Interval: 100 * time.Millisecond, Clock: clk.Now}
	med := core.New(cl, lra.NewNodeCandidates(), coreCfg)
	jn := journal.NewMemory()
	if err := med.AttachJournal(jn, clk.Now()); err != nil {
		t.Fatalf("attach journal: %v", err)
	}
	s := New(med, Config{Clock: clk.Now})
	ts := httptest.NewServer(s.Handler())
	if code, _ := doReserve(t, ts, ReserveRequest{ID: "app-a", MemMB: 4096, VCores: 4}); code != http.StatusCreated {
		t.Fatal("reserve failed")
	}
	if getStats(t, ts).Reservations != 1 {
		t.Fatal("hold not visible before restart")
	}
	ts.Close()

	// "Restart": recover a new core from the journal and serve it with a
	// fresh server, as federation.Member.Restart does.
	rec, err := core.Recover(jn, cl.Clone(), lra.NewNodeCandidates(), coreCfg, clk.Now())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	s2 := New(rec, Config{Clock: clk.Now})
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)
	if st := getStats(t, ts2); st.Reservations != 0 || st.ReservedMemMB != 0 {
		t.Fatalf("restarted server inherited reservations: %+v", st)
	}
}

// TestCordonRefusesUntilLifted: the drain cordon (distinct from shutdown
// draining) refuses new submissions and reservations with 503, keeps
// serving stats and status, flushes held reservations, and uncordon
// restores admission.
func TestCordonRefusesUntilLifted(t *testing.T) {
	_, ts, _ := testServer(t, Config{}, core.Config{})

	if code, _ := doReserve(t, ts, ReserveRequest{ID: "app-r", MemMB: 1024, VCores: 1}); code != http.StatusCreated {
		t.Fatal("pre-cordon reserve failed")
	}
	resp, err := http.Post(ts.URL+"/v1/drain", "application/json", nil)
	if err != nil {
		t.Fatalf("cordon: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cordon: code %d, want 200", resp.StatusCode)
	}

	st := getStats(t, ts)
	if !st.Draining {
		t.Fatal("cordoned server does not report Draining")
	}
	if st.Reservations != 0 {
		t.Fatal("cordon did not flush held reservations")
	}
	sub := doSubmit(t, ts, submitReq("app-a", 0, 0), "")
	sub.Body.Close()
	if sub.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while cordoned: code %d, want 503", sub.StatusCode)
	}
	if code, _ := doReserve(t, ts, ReserveRequest{ID: "app-b", MemMB: 1024, VCores: 1}); code != http.StatusServiceUnavailable {
		t.Fatalf("reserve while cordoned: code %d, want 503", code)
	}

	hr, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/drain", nil)
	resp2, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatalf("uncordon: %v", err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("uncordon: code %d, want 200", resp2.StatusCode)
	}
	sub2 := doSubmit(t, ts, submitReq("app-c", 0, 0), "")
	sub2.Body.Close()
	if sub2.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after uncordon: code %d, want 202", sub2.StatusCode)
	}
}
