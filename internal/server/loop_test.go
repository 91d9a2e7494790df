package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
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
