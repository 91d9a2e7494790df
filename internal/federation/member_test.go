package federation

import (
	"context"
	"errors"
	"net/http"
	"net/url"
	"testing"
	"time"

	"medea/internal/resource"
)

// TestRequestFaultRule pins Member.request's fault rule at its
// boundaries. An injected delay at or past the timeout answers
// context.DeadlineExceeded before the member serves the submission, so
// the retry after the fault is lifted is accepted (202). A tail at or
// past the timeout answers it after the member has served it, so the
// retry finds the app already queued (409). A shorter stall is served
// as if there were none. A crashed or partitioned member refuses with an
// error that is not a deadline. Every error comes back bare: the
// balancer reads "may have landed" off errors.Is(err,
// context.DeadlineExceeded), and no *url.Error wraps it.
func TestRequestFaultRule(t *testing.T) {
	const timeout = 100 * time.Millisecond
	for _, tc := range []struct {
		name         string
		fault        func(g *Gate)
		wantErr      bool
		wantDeadline bool
		landed       bool
	}{
		{name: "no fault", fault: func(*Gate) {}, landed: true},
		{name: "delay below", fault: func(g *Gate) { g.Slow(timeout-time.Millisecond, 1) }, landed: true},
		{name: "delay at", fault: func(g *Gate) { g.Slow(timeout, 1) }, wantErr: true, wantDeadline: true},
		{name: "delay above", fault: func(g *Gate) { g.Slow(timeout+time.Millisecond, 1) }, wantErr: true, wantDeadline: true},
		{name: "tail below", fault: func(g *Gate) { g.SlowTail(timeout-time.Millisecond, 1) }, landed: true},
		{name: "tail at", fault: func(g *Gate) { g.SlowTail(timeout, 1) }, wantErr: true, wantDeadline: true, landed: true},
		{name: "tail above", fault: func(g *Gate) { g.SlowTail(timeout+time.Millisecond, 1) }, wantErr: true, wantDeadline: true, landed: true},
		{name: "crashed", fault: func(g *Gate) { g.Crash() }, wantErr: true},
		{name: "partitioned", fault: func(g *Gate) { g.Partition(true) }, wantErr: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewMember(MemberConfig{ID: "m", Nodes: 4, RackSize: 2, NodeCap: resource.New(8192, 8)})
			if err != nil {
				t.Fatal(err)
			}
			body := mustBody(t, fedReq("app-a", 1, 512, 1))
			tc.fault(m.Gate)
			code, err := m.request(timeout, http.MethodPost, "/v1/lras", body, nil)
			switch {
			case (err != nil) != tc.wantErr:
				t.Fatalf("status %d, err %v; want an error: %v", code, err, tc.wantErr)
			case err == nil && code != http.StatusAccepted:
				t.Fatalf("status %d, want 202", code)
			case errors.Is(err, context.DeadlineExceeded) != tc.wantDeadline:
				t.Fatalf("err %v; want a deadline: %v", err, tc.wantDeadline)
			}
			var ue *url.Error
			if errors.As(err, &ue) {
				t.Fatalf("err %v is wrapped in *url.Error", err)
			}
			m.Gate.Heal()
			m.Gate.Restore()
			want := http.StatusAccepted
			if tc.landed {
				want = http.StatusConflict
			}
			if code, err := m.request(timeout, http.MethodPost, "/v1/lras", body, nil); err != nil || code != want {
				t.Fatalf("retry: status %d, err %v; want %d", code, err, want)
			}
		})
	}
}
