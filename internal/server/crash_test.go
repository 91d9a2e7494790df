package server

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"medea/internal/chaos"
	"medea/internal/cluster"
	"medea/internal/core"
	"medea/internal/journal"
	"medea/internal/lra"
	"medea/internal/resource"
)

// dieAtWriteAhead kills the process at the first barrier of a cycle: the
// write-ahead barrier before the cycle's first commit. Everything staged
// since the barrier before it is lost.
type dieAtWriteAhead struct {
	*chaos.CrashJournal
	inCycle bool
}

func (d *dieAtWriteAhead) Append(r *journal.Record) error {
	if r.Kind == journal.KindBeginBatch {
		d.inCycle = true
	}
	return d.CrashJournal.Append(r)
}

func (d *dieAtWriteAhead) Barrier() error {
	if d.inCycle {
		d.KillAt = d.Ops + 1
	}
	return d.CrashJournal.Barrier()
}

// TestKillBeforeWriteAheadKeepsHandedOffApp kills the server between the
// hand-off and the cycle's write-ahead barrier, the window of the solve.
// The app's status read "pending" when the process died; after recovery
// it must still be pending, not 404.
func TestKillBeforeWriteAheadKeepsHandedOffApp(t *testing.T) {
	clk := newFakeClock()
	cl := cluster.Grid(16, 4, resource.New(16384, 16))
	cfg := core.Config{Interval: 100 * time.Millisecond}
	med := core.New(cl, lra.NewNodeCandidates(), cfg)
	base := journal.NewMemory()
	if err := med.AttachJournal(&dieAtWriteAhead{CrashJournal: &chaos.CrashJournal{Journal: base}}, clk.Now()); err != nil {
		t.Fatalf("AttachJournal: %v", err)
	}
	s := New(med, Config{Clock: clk.Now})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if resp := doSubmit(t, ts, submitReq("a", 0, 0), ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %d, want 202", resp.StatusCode)
	}

	clk.Advance(time.Second)
	func() {
		defer func() {
			if r := recover(); !chaos.IsCrash(r) {
				t.Fatalf("Step ended with %v, want the injected kill", r)
			}
		}()
		s.Step()
	}()
	if st := s.led.view("a").state; st != pending {
		t.Fatalf("status read %q when the process died, want pending", st)
	}

	// A new process: the journal as the kill left it, the live cluster.
	rec, err := core.Recover(base, cl, lra.NewNodeCandidates(), cfg, clk.Now())
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	s2 := New(rec, Config{Clock: clk.Now})
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if code, sr := getStatus(t, ts2, "a"); code != http.StatusOK || sr.State != "pending" {
		t.Fatalf("after recovery status %d %q, want 200 pending", code, sr.State)
	}
	clk.Advance(time.Second)
	s2.Step()
	if code, sr := getStatus(t, ts2, "a"); code != http.StatusOK || sr.State != "deployed" {
		t.Fatalf("after a recovered cycle status %d %q, want 200 deployed", code, sr.State)
	}
}
