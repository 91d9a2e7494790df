package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"testing"
	"time"

	"medea/internal/core"
)

// getStates sends one batched status read for ids.
func getStates(t *testing.T, ts *httptest.Server, ids []string) []string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/lras?" + url.Values{"id": ids}.Encode())
	if err != nil {
		t.Fatalf("states: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("states: status %d, want 200", resp.StatusCode)
	}
	var sr StatesResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decode states: %v", err)
	}
	return sr.States
}

// TestBatchedStatesMatchSingleReads walks apps through every state the
// ledger has — queued, pending, deployed, each terminal state, held only
// for a reservation, unknown — and after every step asks both reads about
// all of them: GET /v1/lras?id=… must answer, per ID asked, the state GET
// /v1/lras/{id} reports, or "" where that read answers 404, in the order
// asked and with repeats kept.
func TestBatchedStatesMatchSingleReads(t *testing.T) {
	s, ts, clk := testServer(t, Config{QueueCap: 4, Admission: AdmissionConfig{QueueHigh: 1000, QueueLow: 999}}, core.Config{})
	ids := []string{"low", "app", "stuck", "dup", "hurry", "held", "nope"}
	// Every ID forwards, then backwards: the order and the repeats.
	asked := append(slices.Clone(ids), ids...)
	slices.Reverse(asked[len(ids):])
	seen := make(map[string]bool)
	check := func(when string) {
		t.Helper()
		got := getStates(t, ts, asked)
		if len(got) != len(asked) {
			t.Fatalf("%s: %d states for %d IDs", when, len(got), len(asked))
		}
		for i, id := range asked {
			code, sr := getStatus(t, ts, id)
			want := sr.State
			switch code {
			case http.StatusOK:
			case http.StatusNotFound:
				want = ""
			default:
				t.Fatalf("%s: GET /v1/lras/%s answered %d", when, id, code)
			}
			if got[i] != want {
				t.Errorf("%s: %s reads %q batched, %q (%d) alone", when, id, got[i], want, code)
			}
			seen[want] = true
		}
	}
	submit := func(req SubmitRequest) {
		t.Helper()
		if resp := doSubmit(t, ts, req, ""); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: status %d, want 202", req.ID, resp.StatusCode)
		}
	}

	check("empty")
	if code, _ := doReserve(t, ts, ReserveRequest{ID: "held", MemMB: 1024, VCores: 1}); code != http.StatusCreated {
		t.Fatalf("reserve held: status %d, want 201", code)
	}
	// The core already holds "dup", so the hand-off's submit of the queued
	// copy is refused and the entry ends failed.
	dup, err := buildApplication(&SubmitRequest{ID: "dup", Groups: []GroupSpec{{Name: "w", Count: 1, MemoryMB: 512, VCores: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	err = s.med.SubmitLRA(dup, clk.Now())
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	submit(submitReq("low", 0, 0))
	submit(submitReq("app", 1, 0))
	submit(SubmitRequest{ID: "stuck", Priority: 1, Groups: []GroupSpec{{Name: "w", Count: 1, MemoryMB: 99999, VCores: 1}}})
	submit(submitReq("dup", 1, 0))
	check("queued")
	submit(submitReq("hurry", 5, 50)) // the queue is full: low is shed
	check("shed")
	clk.Advance(200 * time.Millisecond) // past hurry's deadline
	s.Step()
	check("first step")
	for i := 0; i < 8; i++ {
		clk.Advance(time.Second)
		s.Step()
		check("step")
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/lras/app", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("remove: %v", err)
	}
	resp.Body.Close()
	check("removed")

	for _, state := range []string{"queued", "pending", "deployed", "shed", "expired", "failed", "removed", "rejected", ""} {
		if !seen[state] {
			t.Errorf("the walk never reached %q", state)
		}
	}

	// No ID asked: an empty list, not null.
	resp, err = http.Get(ts.URL + "/v1/lras")
	if err != nil {
		t.Fatalf("states: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(string(body)); resp.StatusCode != http.StatusOK || got != `{"states":[]}` {
		t.Fatalf("no IDs: %d %s, want 200 {\"states\":[]}", resp.StatusCode, got)
	}
}
