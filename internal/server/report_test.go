package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"medea/internal/core"
)

// getBody reads one endpoint's 200 body.
func getBody(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d, %v", path, resp.StatusCode, err)
	}
	return body
}

// TestReportMatchesStats: in every state a scout can find a member in —
// holds larger than free capacity, a queue, apps pending in the core,
// outcomes recorded, draining — each GET /v1/report field equals the
// GET /v1/stats field of the same name. The report serves exactly nine
// fields, and the states with a hold pin the debit and the per-dimension
// clamp by value, so a rule dropped from both handlers fails too.
func TestReportMatchesStats(t *testing.T) {
	s, ts, clk := testServer(t, Config{}, core.Config{})
	var rep ReportResponse
	check := func(state string) {
		t.Helper()
		body := getBody(t, ts, "/v1/report")
		var report, stats map[string]json.RawMessage
		rep = ReportResponse{}
		for _, err := range []error{
			json.Unmarshal(body, &report),
			json.Unmarshal(getBody(t, ts, "/v1/stats"), &stats),
			json.Unmarshal(body, &rep),
		} {
			if err != nil {
				t.Fatalf("%s: %v", state, err)
			}
		}
		if len(report) != 9 {
			t.Fatalf("%s: /v1/report has %d fields, want 9", state, len(report))
		}
		for name, v := range report {
			if w, ok := stats[name]; !ok || !bytes.Equal(v, w) {
				t.Errorf("%s: /v1/report %s = %s, /v1/stats %s = %s", state, name, v, name, w)
			}
		}
	}
	step := func() { clk.Advance(time.Second); s.Step() }

	check("fresh")
	total := rep
	if total.FreeMemMB != total.TotalMemMB || total.Draining || total.Epoch != 1 {
		t.Fatalf("fresh report %+v", total)
	}

	// A hold of all the memory but 1 GB, then a 2 GB app that needs none:
	// free minus held is −1 GB of memory (clamped to 0) and 1021 vcores.
	if code, _ := doReserve(t, ts, ReserveRequest{ID: "held", MemMB: total.TotalMemMB - 1024, VCores: 1}); code != http.StatusCreated {
		t.Fatalf("reserve: %d", code)
	}
	check("reserved")
	if rep.FreeMemMB != 1024 || rep.FreeVCores != total.FreeVCores-1 {
		t.Fatalf("reserved: free %d/%d, want 1024/%d", rep.FreeMemMB, rep.FreeVCores, total.FreeVCores-1)
	}
	doSubmit(t, ts, submitReq("a", 0, 0), "")
	check("queued")
	if rep.QueueDepth != 1 {
		t.Fatalf("queued: queue depth %d, want 1", rep.QueueDepth)
	}
	step()
	check("hold larger than free")
	if rep.FreeMemMB != 0 || rep.FreeVCores != total.FreeVCores-3 {
		t.Fatalf("hold larger than free: free %d/%d, want 0/%d", rep.FreeMemMB, rep.FreeVCores, total.FreeVCores-3)
	}

	// An app no node can hold stays pending in the core.
	stuck := SubmitRequest{ID: "stuck", Groups: []GroupSpec{{Name: "w", Count: 1, MemoryMB: 99999, VCores: 1}}}
	doSubmit(t, ts, stuck, "")
	step()
	check("core pending")
	if rep.CorePending == 0 {
		t.Fatalf("core pending: %+v", rep)
	}

	if code := doUnreserve(t, ts, "held"); code != http.StatusOK {
		t.Fatalf("unreserve: %d", code)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/lras/a", nil)
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("remove: %v", err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("remove: status %d", r.StatusCode)
	}
	check("outcome recorded")
	if rep.OutcomeSeq == 0 || rep.FreeMemMB != total.FreeMemMB {
		t.Fatalf("outcome recorded: %+v", rep)
	}

	if code, _ := doReserve(t, ts, ReserveRequest{ID: "b", MemMB: 4096, VCores: 4}); code != http.StatusCreated {
		t.Fatalf("reserve: %d", code)
	}
	if r, err = http.Post(ts.URL+"/v1/drain", "application/json", nil); err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	check("draining")
	if !rep.Draining || rep.FreeMemMB != total.FreeMemMB {
		t.Fatalf("draining: %+v (a cordon flushes the holds)", rep)
	}
}
