package server

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"medea/internal/lra"
	"medea/internal/metrics"
	"medea/internal/resource"
)

// row is one legal pair of the table: where the event leads, and the one
// counter it bumps ("" = none).
type row struct {
	to      appState
	counter string
}

func from(to appState, counter string, states ...appState) map[appState]row {
	m := make(map[appState]row)
	for _, s := range states {
		m[s] = row{to, counter}
	}
	return m
}

// stays is an event that leaves every state it is legal in alone.
func stays(counter string, states ...appState) map[appState]row {
	m := make(map[appState]row)
	for _, s := range states {
		m[s] = row{s, counter}
	}
	return m
}

var (
	allStates  = []appState{absent, queued, pending, deployed, shed, expired, failed, removed, rejected}
	liveStates = []appState{queued, pending, deployed}
	deadStates = []appState{absent, shed, expired, failed, removed, rejected}
)

// wantTable is the state machine written out a second time, by hand:
// event → state it is legal in → where it leads and what it counts. The
// reservation events are legal only on an entry that carries a
// reservation, evReserve only on one that carries none; the lifecycle
// events do not look at the mark.
var wantTable = map[event]map[appState]row{
	evSubmit:  from(queued, "admitted", deadStates...),
	evShed:    from(shed, "shed_queue_full", queued),
	evExpire:  from(expired, "expired", queued),
	evHandOff: from(pending, "", queued),
	evRefuse:  from(failed, "submit_errors", pending),
	evDeploy:  from(deployed, "", pending),
	evReject:  from(rejected, "", pending),
	evCancel:  from(removed, "removed", queued),
	evRemove:  from(removed, "removed", pending, deployed),
	evRecover: from(pending, "", absent),
	evForget:  from(absent, "", shed, expired, failed, removed, rejected),
	evReserve: stays("reserved", deadStates...),
	evRefresh: stays("", deadStates...),
	evRelease: stays("reservation_released", allStates...),
	evLapse:   stays("reservation_expired", allStates...),
	evConsume: stays("reservation_consumed", liveStates...),
	evFlush:   stays("", allStates...),
}

// needsMark says what an event requires of the reservation mark: +1 it
// must be there, -1 it must not, 0 either way.
func needsMark(ev event) int {
	switch ev {
	case evReserve:
		return -1
	case evRefresh, evRelease, evLapse, evConsume, evFlush:
		return +1
	}
	return 0
}

// ledgerAt builds a ledger whose entry "app" is in state s, reserved or
// not, by the events that lead there, with fresh counters.
func ledgerAt(t *testing.T, s appState, reserved bool) *ledger {
	t.Helper()
	l := newLedger(4, &metrics.ServerStats{}, t.Logf)
	must := func(ev event) {
		t.Helper()
		if !l.apply("app", ev, testArg) {
			t.Fatalf("setting up %v: event %d refused", s, ev)
		}
	}
	if reserved {
		must(evReserve)
	}
	if s != absent {
		must(evSubmit)
	}
	switch s {
	case shed:
		must(evShed)
	case expired:
		must(evExpire)
	case removed:
		must(evCancel)
	case pending, deployed, failed, rejected:
		must(evHandOff)
	}
	switch s {
	case deployed:
		must(evDeploy)
	case failed:
		must(evRefuse)
	case rejected:
		must(evReject)
	}
	l.stats = &metrics.ServerStats{}
	return l
}

// testArg serves every event: each reads only the fields it needs.
var testArg = evArg{
	sub:  &appEntry{id: "app", app: &lra.Application{ID: "app"}, priority: 3, deadline: time.Unix(30000, 0)},
	resv: &reservation{demand: resource.New(1024, 1), expires: time.Unix(40000, 0)},
	err:  errors.New("refused"),
}

// checkLists fails unless every entry is on exactly the lists its state
// and mark put it on, and the lists hold nothing else.
func checkLists(t *testing.T, l *ledger, context string) {
	t.Helper()
	for id, e := range l.byID {
		if e.state == absent && e.resv == nil {
			t.Errorf("%s: %s is kept with neither a lifecycle nor a reservation", context, id)
		}
		if got := slices.Contains(l.queue, e); got != (e.state == queued) {
			t.Errorf("%s: %s is %v, on the queue = %v", context, id, e.state, got)
		}
		if got := l.pending[id] == e; got != (e.state == pending) {
			t.Errorf("%s: %s is %v, among the pending = %v", context, id, e.state, got)
		}
		if got := slices.Contains(l.terminal, e); got != e.state.terminal() {
			t.Errorf("%s: %s is %v, among the terminal = %v", context, id, e.state, got)
		}
		if got := l.reserved[id] == e; got != (e.resv != nil) {
			t.Errorf("%s: %s reserved = %v, among the reserved = %v", context, id, e.resv != nil, got)
		}
		if (e.app != nil) != (e.state == queued) {
			t.Errorf("%s: %s is %v and holds a submission = %v", context, id, e.state, e.app != nil)
		}
		if !e.deadline.IsZero() && e.state != queued && e.state != pending {
			t.Errorf("%s: %s is %v and still carries a deadline", context, id, e.state)
		}
	}
	var held resource.Vector
	for _, e := range l.reserved {
		held = held.Add(e.resv.demand)
	}
	if held != l.held {
		t.Errorf("%s: the holds add up to %v, the running sum says %v", context, held, l.held)
	}
	if n := len(l.queue) + len(l.pending) + len(l.terminal); n > len(l.byID) {
		t.Errorf("%s: %d entries on the state lists, %d in the ledger", context, n, len(l.byID))
	}
	if len(l.reserved) > len(l.byID) {
		t.Errorf("%s: %d reserved entries, %d in the ledger", context, len(l.reserved), len(l.byID))
	}
}

// TestAppTransitionTable checks next and the writer behind it against
// the hand-written table for every (state, event, reserved) triple. A
// legal pair reaches the stated state, bumps exactly the stated counter
// and leaves the lists well-formed; an illegal pair changes nothing.
func TestAppTransitionTable(t *testing.T) {
	for ev := event(0); ev < numEvents; ev++ {
		if _, ok := wantTable[ev]; !ok {
			t.Fatalf("event %d is missing from the table", ev)
		}
		for _, s := range allStates {
			for _, reserved := range []bool{false, true} {
				context := fmt.Sprintf("%v, event %d, reserved=%v", s, ev, reserved)
				want, legal := wantTable[ev][s]
				if m := needsMark(ev); m > 0 && !reserved || m < 0 && reserved {
					legal = false
				}
				if got, ok := next(s, ev, reserved); ok != legal || (ok && got != want.to) {
					t.Errorf("next(%s) = %v, %v; want %v, %v", context, got, ok, want.to, legal)
				}

				l := ledgerAt(t, s, reserved)
				before := l.view("app")
				ok := l.apply("app", ev, testArg)
				after := l.view("app")
				checkLists(t, l, context)
				if ok != legal {
					t.Errorf("%s: apply ok=%v, table says %v", context, ok, legal)
					continue
				}
				bumped := ""
				for name, n := range l.stats.Snapshot() {
					switch {
					case n == 1 && bumped == "":
						bumped = name
					case n != 0:
						t.Errorf("%s: counter %s is %d after one event (with %s)", context, name, n, bumped)
					}
				}
				if !ok {
					if after != before || bumped != "" {
						t.Errorf("%s: refused, yet the entry changed %+v -> %+v, counter %q", context, before, after, bumped)
					}
					continue
				}
				if after.state != want.to {
					t.Errorf("%s: entry is now %v, table says %v", context, after.state, want.to)
				}
				if bumped != want.counter {
					t.Errorf("%s: bumped %q, table says %q", context, bumped, want.counter)
				}
				if marked := ev == evReserve || ev == evRefresh || needsMark(ev) == 0 && reserved; (after.resv != nil) != marked {
					t.Errorf("%s: reservation present = %v afterwards, want %v", context, after.resv != nil, marked)
				}
			}
		}
	}
}

// TestEveryAppStateReachable: starting from an unknown ID, every state
// can be reached, and every state can be left for absent again.
func TestEveryAppStateReachable(t *testing.T) {
	reach := func(start appState) map[appState]bool {
		seen := map[appState]bool{start: true}
		for frontier := []appState{start}; len(frontier) > 0; frontier = frontier[1:] {
			for ev := event(0); ev < numEvents; ev++ {
				for _, reserved := range []bool{false, true} {
					if n, ok := next(frontier[0], ev, reserved); ok && !seen[n] {
						seen[n] = true
						frontier = append(frontier, n)
					}
				}
			}
		}
		return seen
	}
	fromAbsent := reach(absent)
	for _, s := range allStates {
		if !fromAbsent[s] {
			t.Errorf("state %v is not reachable from absent", s)
		}
		if !reach(s)[absent] {
			t.Errorf("absent is not reachable from %v", s)
		}
	}
}

// TestTerminalMemoryOneSlotPerID: the memory of how apps left holds the
// maxOutcomes IDs that left last, one slot each however often an ID
// left, and forgets the oldest first.
func TestTerminalMemoryOneSlotPerID(t *testing.T) {
	l := newLedger(4, &metrics.ServerStats{}, t.Logf)
	leave := func(id string, ev event) {
		t.Helper()
		sub := &appEntry{id: id, app: &lra.Application{ID: id}}
		if _, res := l.submit(sub); res != submitQueued {
			t.Fatalf("submit %s: result %d", id, res)
		}
		if !l.apply(id, ev, evArg{sub: sub}) {
			t.Fatalf("%s: event %d refused", id, ev)
		}
	}
	leave("again", evShed)
	leave("again", evCancel) // a second outcome of the same ID
	if got := l.view("again").state; got != removed {
		t.Fatalf("again is %v, want removed (the later outcome)", got)
	}
	if len(l.terminal) != 1 {
		t.Fatalf("two outcomes of one ID hold %d slots, want 1", len(l.terminal))
	}
	for i := 1; i < maxOutcomes; i++ {
		leave(fmt.Sprintf("app-%d", i), evExpire)
	}
	if got := l.view("again").state; got != removed || len(l.terminal) != maxOutcomes {
		t.Fatalf("memory at its bound: again is %v with %d slots used, want removed with %d", got, len(l.terminal), maxOutcomes)
	}
	leave("one-more", evCancel)
	if got := l.view("again").state; got != absent {
		t.Fatalf("the oldest outcome is %v after the bound was passed, want it forgotten", got)
	}
	if got := l.view("app-1").state; got != expired || len(l.terminal) != maxOutcomes {
		t.Fatalf("app-1 is %v with %d slots used, want expired with %d", got, len(l.terminal), maxOutcomes)
	}
	checkLists(t, l, "after the bound was passed")
	if _, held := l.byID["again"]; held {
		t.Fatal("a forgotten ID with no reservation is still in the ledger")
	}
}
