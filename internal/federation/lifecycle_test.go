package federation

import (
	"context"
	"sync"
	"testing"
	"time"

	"medea/internal/core"
	"medea/internal/server"
)

// TestStatusRacesControlLoop: client reads of a ledger entry race the
// control loop's writes to it. A fleet runs in real time while one
// goroutine polls Status and another moves the app back and forth; under
// -race any read of the entry outside the balancer's lock is reported.
func TestStatusRacesControlLoop(t *testing.T) {
	f, err := NewFleet(FleetConfig{
		Members:        2,
		NodesPerMember: 4,
		Core:           core.Config{Interval: 5 * time.Millisecond},
		Scout:          ScoutConfig{ProbeInterval: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	f.Start(context.Background())
	defer f.Close()
	if _, err := f.Balancer.Submit(fedReq("app-a", 1, 512, 1)); err != nil {
		t.Fatalf("submit: %v", err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_, _ = f.Balancer.Status("app-a")
			}
		}
	}()
	deadline := time.Now().Add(2 * time.Second)
	moves := 0
	for moves < 4 && time.Now().Before(deadline) {
		home, _ := f.Balancer.Home("app-a")
		dest := "cluster-1"
		if home == dest {
			dest = "cluster-0"
		}
		if home != "" && f.Balancer.Migrate("app-a", dest) == nil {
			moves++
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if moves == 0 {
		t.Fatal("no migration ever started; the race window was never opened")
	}
	if err := f.Balancer.Remove("app-a"); err != nil {
		t.Logf("remove: %v", err) // a move may be mid-DELETE; not this test's subject
	}
}

// TestConcurrentSubmitLandsOneCopy: two clients submit the same ID at
// the same instant against members that admit one request per tick. The
// first lands; without a ledger entry recorded before the first wire
// operation the second is throttled there (429 comes before the member's
// own 409 check), spills to the next member and lands a second live copy
// that no ambiguous mark covers.
func TestConcurrentSubmitLandsOneCopy(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		f, clk := testFleet(t, FleetConfig{
			Members:        3,
			NodesPerMember: 4,
			Server:         server.Config{RateLimit: server.RateLimitConfig{GlobalRate: 1, Burst: 1}},
		})
		steps(f, clk, 2)
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, _ = f.Balancer.Submit(fedReq("app-a", 1, 512, 1))
			}()
		}
		wg.Wait()
		steps(f, clk, 3)
		if h := holders(f, "app-a"); len(h) != 1 {
			t.Fatalf("trial %d: app-a live on %v (marks %v), want exactly one copy",
				trial, h, f.Balancer.AmbiguousMarks("app-a"))
		}
		f.Close()
	}
}

// TestRemoveDuringMoveDeletePhase: the client tears an app down while
// its move is past the point of no return — the source copy is already
// deleted, the ledger (a balancer crash at post-delete) still says
// DELETE. The teardown must succeed (404 from the home means gone), and
// no copy may survive or be re-placed afterwards.
func TestRemoveDuringMoveDeletePhase(t *testing.T) {
	f, clk := testFleet(t, FleetConfig{Members: 3, NodesPerMember: 4})
	steps(f, clk, 2)
	src, err := f.Balancer.Submit(fedReq("app-a", 2, 1024, 1))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	steps(f, clk, 3)
	dest := "cluster-1"
	if src == dest {
		dest = "cluster-2"
	}
	fired := false
	f.Balancer.SetMigrationHook(func(p MigPoint, app string) bool {
		if p != MigPointPostDelete || app != "app-a" {
			return false
		}
		fired = true
		return true // every DELETE ack is dropped: the ledger stays in the DELETE phase
	})
	if err := f.Balancer.Migrate("app-a", dest); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	for i := 0; i < 40 && !fired; i++ {
		steps(f, clk, 1)
	}
	if !fired {
		t.Fatal("the move never reached post-delete")
	}
	if err := f.Balancer.Remove("app-a"); err != nil {
		t.Fatalf("remove during the DELETE phase: %v", err)
	}
	steps(f, clk, 10)
	if h := holders(f, "app-a"); len(h) != 0 {
		t.Fatalf("app-a still live on %v ten rounds after its removal", h)
	}
	if home, ok := f.Balancer.Home("app-a"); ok && home != "" {
		t.Fatalf("removed app is homed on %s again", home)
	}
}
