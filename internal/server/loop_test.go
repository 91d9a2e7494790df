package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/core"
	"medea/internal/lra"
	"medea/internal/resource"
)

// TestIdleStepIndependentOfDeployed: a loop iteration with nothing
// queued and nothing pending costs the same with 500 apps deployed as
// with none. The mirror the ledger replaced was rebuilt from the core's
// pending and deployed sets (the latter sorted) on every iteration.
func TestIdleStepIndependentOfDeployed(t *testing.T) {
	idleAllocs := func(deployed int) float64 {
		clk := newFakeClock()
		med := core.New(cluster.Grid(64, 8, resource.New(16384, 16)), lra.NewNodeCandidates(),
			core.Config{Interval: 100 * time.Millisecond})
		s := New(med, Config{Clock: clk.Now})
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		for i := 0; i < deployed; i++ {
			req := SubmitRequest{ID: fmt.Sprintf("app-%d", i), Groups: []GroupSpec{{Name: "w", Count: 1, MemoryMB: 512, VCores: 1}}}
			if resp := doSubmit(t, ts, req, ""); resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit %d: %d", i, resp.StatusCode)
			}
			if i%10 == 9 { // small batches: each cycle places all of its batch
				clk.Advance(time.Second)
				s.Step()
			}
		}
		if got := med.DeployedLRAs(); got != deployed || med.PendingLRAs() != 0 {
			t.Fatalf("%d deployed and %d pending, want %d and 0", got, med.PendingLRAs(), deployed)
		}
		return testing.AllocsPerRun(50, s.Step)
	}
	if none, many := idleAllocs(0), idleAllocs(500); none != many {
		t.Fatalf("an idle Step allocates %v times with nothing deployed and %v times with 500 apps deployed", none, many)
	}
}

// TestReadersRaceTheLoop: four clients poll an app's status and the
// stats while the loop cycles and a fifth submits and removes apps. Run
// under -race this is the check on the lock discipline Server documents:
// readers see the ledger only as copies taken under its lock, and go to
// the core only under the core lock.
func TestReadersRaceTheLoop(t *testing.T) {
	med := core.New(cluster.Grid(16, 4, resource.New(16384, 16)), lra.NewNodeCandidates(),
		core.Config{Interval: time.Millisecond})
	s := New(med, Config{PollEvery: time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var running sync.WaitGroup
	running.Add(1)
	go func() {
		defer running.Done()
		s.Run(ctx)
	}()

	const apps = 40
	for r := 0; r < 4; r++ {
		running.Add(1)
		go func(r int) {
			defer running.Done()
			for i := 0; ctx.Err() == nil; i++ {
				// t.Fatal is for the test's own goroutine: poll by hand.
				for _, path := range []string{fmt.Sprintf("/v1/lras/app-%d", (i+r)%apps), "/v1/stats"} {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						t.Errorf("GET %s: %v", path, err)
						return
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
						t.Errorf("GET %s: %d", path, resp.StatusCode)
					}
				}
			}
		}(r)
	}
	for i := 0; i < apps; i++ {
		id := fmt.Sprintf("app-%d", i)
		if resp := doSubmit(t, ts, submitReq(id, 0, 0), ""); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %s: %d", id, resp.StatusCode)
		}
		if i%2 == 1 {
			// Whatever state the loop has brought it to, a live app can be removed.
			req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/lras/"+id, nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatalf("remove %s: %v", id, err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("remove %s: %d", id, resp.StatusCode)
			}
		}
	}
	// Every app that was not removed deploys.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := getStats(t, ts); st.Deployed == apps/2 && st.QueueDepth == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("apps did not settle: %+v", getStats(t, ts))
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	running.Wait()
	for i := 0; i < apps; i++ {
		want := "deployed"
		if i%2 == 1 {
			want = "removed"
		}
		if code, sr := getStatus(t, ts, fmt.Sprintf("app-%d", i)); code != 200 || sr.State != want {
			t.Errorf("app-%d: %d %q, want 200 %q", i, code, sr.State, want)
		}
	}
}
