package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/core"
	"medea/internal/journal"
	"medea/internal/lra"
	"medea/internal/resource"
)

// TestNonFiniteWeightRefused: a constraint weight of NaN or ±Inf is
// refused with 400 at both endpoints that take constraints, nothing is
// registered, and the next Step runs on a journaled core. Such a weight
// used to pass validation: POST /v1/lras answered 202 and the next Step
// panicked journaling the submit, and POST /v1/constraints registered
// the operator constraint before its checkpoint failed to encode, so
// the next cycle's checkpoint panicked.
func TestNonFiniteWeightRefused(t *testing.T) {
	clk := newFakeClock()
	med := core.New(cluster.Grid(16, 4, resource.New(16384, 16)), lra.NewNodeCandidates(), core.Config{Interval: 100 * time.Millisecond})
	if err := med.AttachJournal(journal.NewMemory(), clk.Now()); err != nil {
		t.Fatal(err)
	}
	s := New(med, Config{Clock: clk.Now})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for i, w := range []string{"NaN", "Inf", "+Inf", "-Inf", "infinity"} {
		req := submitReq(fmt.Sprintf("w-%d", i), 0, 0)
		req.Constraints = []string{w + ": {w, {w, 0, 0}, node}"}
		if resp := doSubmit(t, ts, req, ""); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit with weight %s: status %d, want 400", w, resp.StatusCode)
		}
		body := fmt.Sprintf(`{"constraints":[%q]}`, w+": {a, {b, 0, 0}, node}")
		resp, err := http.Post(ts.URL+"/v1/constraints", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("operator constraint with weight %s: status %d, want 400", w, resp.StatusCode)
		}
	}
	if got := med.Constraints.Operator(); len(got) != 0 {
		t.Errorf("operator constraints registered: %v", got)
	}
	if resp := doSubmit(t, ts, submitReq("ok", 0, 0), ""); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit ok: status %d, want 202", resp.StatusCode)
	}
	clk.Advance(time.Second)
	s.Step()
	if code, sr := getStatus(t, ts, "ok"); code != http.StatusOK || sr.State != "deployed" {
		t.Fatalf("after Step: status %d %q, want 200 deployed", code, sr.State)
	}
}

// failingCheckpoints is a memory journal whose checkpoints fail while
// fail is set.
type failingCheckpoints struct {
	*journal.Memory
	fail bool
}

func (j *failingCheckpoints) WriteCheckpoint(c *journal.Checkpoint) error {
	if j.fail {
		return errors.New("checkpoint: disk gone")
	}
	return j.Memory.WriteCheckpoint(c)
}

// TestConstraintCheckpointFailure: when the checkpoint that makes new
// operator constraints durable fails, POST /v1/constraints answers 500,
// the failure being the server's, and the constraints come off the
// manager again. Once checkpoints work, the same request adds them.
// The handler used to answer 400 and leave them registered, binding
// placements that a restart would forget.
func TestConstraintCheckpointFailure(t *testing.T) {
	clk := newFakeClock()
	med := core.New(cluster.Grid(16, 4, resource.New(16384, 16)), lra.NewNodeCandidates(), core.Config{Interval: 100 * time.Millisecond})
	jnl := &failingCheckpoints{Memory: journal.NewMemory()}
	if err := med.AttachJournal(jnl, clk.Now()); err != nil {
		t.Fatal(err)
	}
	s := New(med, Config{Clock: clk.Now})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func() int {
		t.Helper()
		body := `{"constraints":["{a, {b, 0, 0}, node}", "{c, {d, 1, 2}, rack}"]}`
		resp, err := http.Post(ts.URL+"/v1/constraints", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	jnl.fail = true
	if code := post(); code != http.StatusInternalServerError {
		t.Errorf("failed checkpoint: status %d, want 500", code)
	}
	if got := med.Constraints.Operator(); len(got) != 0 {
		t.Errorf("operator constraints left registered after the failed checkpoint: %v", got)
	}
	if n := med.Constraints.Len(); n != 0 {
		t.Errorf("manager counts %d constraints, want 0", n)
	}
	jnl.fail = false
	if code := post(); code != http.StatusOK {
		t.Errorf("working checkpoint: status %d, want 200", code)
	}
	if got := med.Constraints.Operator(); len(got) != 2 {
		t.Errorf("operator constraints after the working checkpoint: %v, want 2", got)
	}
}
