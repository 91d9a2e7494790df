package server

import (
	"context"
	"runtime"
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/core"
	"medea/internal/journal"
	"medea/internal/lra"
	"medea/internal/resource"
)

// TestRunDrainNoGoroutineLeak: the scheduling loop plus a full graceful
// drain must leave no goroutines behind once the context is cancelled —
// the loop goroutine is the only one the server ever starts.
func TestRunDrainNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()

	cl := cluster.Grid(8, 4, resource.New(16384, 16))
	med := core.New(cl, lra.NewNodeCandidates(), core.Config{Interval: time.Millisecond})
	if err := med.AttachJournal(journal.NewMemory(), time.Now()); err != nil {
		t.Fatalf("attach journal: %v", err)
	}
	s := New(med, Config{QueueCap: 8, PollEvery: time.Millisecond})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Run(ctx)
	}()
	time.Sleep(5 * time.Millisecond) // let the loop tick at least once
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	cancel()
	<-done

	waitForGoroutines(t, before)
}

// waitForGoroutines waits for the goroutine count to fall back to the
// baseline, then fails with a full stack dump if it never does.
func waitForGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d at start, %d after shutdown\n%s", want, runtime.NumGoroutine(), buf[:n])
}
