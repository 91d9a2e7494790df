package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"medea/internal/core"
	"medea/internal/journal"
)

// TestDrainRacingSubmits hammers the accept path with concurrent submits
// while Shutdown runs in the middle of the storm, and asserts the
// exactly-one-outcome contract: every submit gets either a 202 that is
// honored (the app is visible in the journaled core afterwards — queued,
// deployed, or with an explicit outcome) or a clean 503, and a 503'd app
// never leaks into the core. Run under -race this also exercises the
// queue-close / final-flush ordering in Shutdown against the lock-free
// accept gate.
func TestDrainRacingSubmits(t *testing.T) {
	s, ts, clk := testServer(t, Config{QueueCap: 4096}, core.Config{})
	if err := s.med.AttachJournal(journal.NewMemory(), clk.Now()); err != nil {
		t.Fatalf("attach journal: %v", err)
	}

	const workers = 32
	const perWorker = 8

	codes := make([][]int, workers) // codes[w][i] for app "race-w-i"
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(workers)
	for w := 0; w < workers; w++ {
		codes[w] = make([]int, perWorker)
		go func(w int) {
			defer done.Done()
			start.Wait()
			for i := 0; i < perWorker; i++ {
				id := fmt.Sprintf("race-%d-%d", w, i)
				resp := doSubmit(t, ts, submitReq(id, 0, 0), "hammer")
				codes[w][i] = resp.StatusCode
			}
		}(w)
	}

	drained := make(chan error, 1)
	go func() {
		start.Wait()
		drained <- s.Shutdown(context.Background())
	}()
	start.Done() // release the storm and the drain together
	done.Wait()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}

	var acked, rejected int
	for w := 0; w < workers; w++ {
		for i := 0; i < perWorker; i++ {
			id := fmt.Sprintf("race-%d-%d", w, i)
			code := codes[w][i]
			switch code {
			case http.StatusAccepted:
				acked++
				// The 202 must be honored: after drain the app is in the
				// journaled core (pending or deployed) or has an explicit
				// outcome — never stranded in a queue nothing reads.
				if st, _ := getStatus(t, ts, id); st != http.StatusOK {
					t.Errorf("%s: acked 202 but status endpoint says %d (lost ack)", id, st)
				}
				if s.led.view(id).state == queued {
					t.Errorf("%s: acked 202 but still stuck in the closed submit queue", id)
				}
			case http.StatusServiceUnavailable:
				rejected++
				if st, _ := getStatus(t, ts, id); st != http.StatusNotFound {
					t.Errorf("%s: rejected with 503 but present in core (status %d)", id, st)
				}
			default:
				t.Errorf("%s: got %d, want exactly one of 202 or 503", id, code)
			}
		}
	}
	if acked+rejected != workers*perWorker {
		t.Fatalf("accounted %d+%d submits, want %d", acked, rejected, workers*perWorker)
	}
	t.Logf("drain race: %d acked, %d cleanly rejected", acked, rejected)
}
