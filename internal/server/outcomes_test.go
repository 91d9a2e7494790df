package server

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"medea/internal/metrics"
)

// TestOutcomeFeedMatchesLedger holds the outcome feed to a second,
// plainer account of the same history. Random event sequences run over
// more IDs than the terminal memory holds; beside them the test keeps
// its own log of every move into a terminal state, numbered in order,
// drops an ID's entry when it is resubmitted, and forgets the oldest
// entry whenever more than maxOutcomes are held. At every check, for cursors around the forgotten
// mark and at random, the feed after K must be exactly the logged
// outcomes after K, in order, and report a gap exactly when an outcome
// after K was forgotten.
func TestOutcomeFeedMatchesLedger(t *testing.T) {
	type outcome struct {
		seq   uint64
		id    string
		state appState
	}
	ids := maxOutcomes * 3
	// Every lifecycle and reservation event but evForget, which only the
	// memory bound drives.
	var moves []event
	for ev := event(0); ev < numEvents; ev++ {
		if ev != evForget {
			moves = append(moves, ev)
		}
	}
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		l := newLedger(4, &metrics.ServerStats{}, func(string, ...any) {})
		var held []outcome                // the test's log: held outcomes, oldest first
		number := make(map[string]uint64) // each held outcome's number, by ID
		var seq, forgotten uint64
		check := func(step int, after uint64) {
			t.Helper()
			got, latest, gap := l.outcomes(after)
			if latest != seq {
				t.Fatalf("seed %d, step %d: latest outcome %d, want %d", seed, step, latest, seq)
			}
			if wantGap := forgotten > after; gap != wantGap {
				t.Fatalf("seed %d, step %d: after %d the feed reports gap %v, want %v (forgotten up to %d)", seed, step, after, gap, wantGap, forgotten)
			}
			var want []Outcome
			if !gap {
				for _, o := range held {
					if o.seq > after {
						want = append(want, Outcome{Seq: o.seq, ID: o.id, State: o.state.String()})
					}
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d, step %d: after %d the feed holds %d outcomes, want %d (first %v, want %v)", seed, step, after, len(got), len(want), first(got), first(want))
			}
		}
		steps := 100000
		for step := 0; step < steps; step++ {
			id := fmt.Sprintf("app-%d", rng.Intn(ids))
			e := l.view(id)
			ev := moves[rng.Intn(len(moves))]
			if rng.Intn(5) > 0 {
				// Mostly an event that is legal here, so the apps move.
				var legal []event
				for _, m := range moves {
					if _, ok := next(e.state, m, e.resv != nil); ok {
						legal = append(legal, m)
					}
				}
				ev = legal[rng.Intn(len(legal))]
			}
			if !l.apply(id, ev, testArg) {
				continue
			}
			to := l.view(id).state
			if e.state.terminal() && to != e.state {
				// Resubmitted: live again, and out of the feed.
				i, _ := slices.BinarySearchFunc(held, number[id], func(o outcome, seq uint64) int { return cmp.Compare(o.seq, seq) })
				held = slices.Delete(held, i, i+1)
				delete(number, id)
			}
			if to.terminal() && to != e.state {
				seq++
				held = append(held, outcome{seq, id, to})
				number[id] = seq
				if len(held) > maxOutcomes {
					forgotten = held[0].seq
					delete(number, held[0].id)
					held = held[1:]
				}
			}
			if step%2500 == 0 || step == steps-1 {
				for _, after := range []uint64{0, forgotten - min(forgotten, 1), forgotten, forgotten + 1, uint64(rng.Int63n(int64(seq) + 1)), seq, math.MaxUint64} {
					check(step, after)
				}
			}
		}
		if forgotten == 0 {
			t.Fatalf("seed %d: %d outcomes and none forgotten: the sequence never filled the memory", seed, seq)
		}
		checkLists(t, l, fmt.Sprintf("seed %d", seed))
	}
}

func first(os []Outcome) any {
	if len(os) == 0 {
		return nil
	}
	return os[0]
}
