package federation

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"medea/internal/metrics"
)

var allStates = []appState{placing, placed, movingPrepare, movingCommit, movingDelete, degraded, tombstoned, gone}

// to is where an event leads: with marks left on the entry, and with
// none. A pair the table does not list is refused.
type to struct{ marked, unmarked appState }

// stays is an event that leaves every state it is legal in alone.
func stays(states ...appState) map[appState]to {
	m := make(map[appState]to)
	for _, s := range states {
		m[s] = to{s, s}
	}
	return m
}

// same is stays for an event that can take the last mark away: a
// homeless entry (placing, tombstoned) exists only for its marks.
func same(states ...appState) map[appState]to {
	m := stays(states...)
	for _, s := range []appState{placing, tombstoned} {
		if _, ok := m[s]; ok {
			m[s] = to{s, gone}
		}
	}
	return m
}

func all(t to, states ...appState) map[appState]to {
	m := make(map[appState]to)
	for _, s := range states {
		m[s] = t
	}
	return m
}

// wantTable is the state machine written out a second time, by hand:
// event → state it is legal in → where it leads.
var wantTable = map[event]map[appState]to{
	evSubmit:           all(to{placing, placing}, gone),
	evPlace:            all(to{placed, placed}, placing, placed, degraded),
	evRouteFailed:      same(placing),
	evAdopt:            all(to{placed, placed}, placing, degraded),
	evStrand:           all(to{degraded, degraded}, placed),
	evVanish:           all(to{degraded, degraded}, placed),
	evMark:             stays(placing, placed, movingPrepare, movingCommit, movingDelete, degraded, tombstoned),
	evMarkCleared:      same(placing, placed, movingPrepare, movingCommit, movingDelete, degraded, tombstoned),
	evDuplicateDeleted: same(placing, placed, movingPrepare, movingCommit, movingDelete, degraded, tombstoned),
	evRemove: {
		placing:    {tombstoned, -1}, // no marks: the routing is still in flight
		placed:     {tombstoned, gone},
		degraded:   {tombstoned, gone},
		tombstoned: {tombstoned, gone},
		// Tombstoned with a mark on each endpoint, whatever was marked before.
		movingDelete: {tombstoned, tombstoned},
	},
	evForget:       all(to{gone, gone}, placing, placed, movingPrepare, movingCommit, movingDelete, degraded, tombstoned),
	evMove:         all(to{movingPrepare, movingPrepare}, placed),
	evIntent:       stays(movingPrepare, movingCommit),
	evReserved:     all(to{movingCommit, movingCommit}, movingPrepare),
	evCopyAcked:    stays(movingCommit),
	evCopyLost:     stays(movingCommit),
	evCopyWaiting:  stays(movingCommit),
	evCopyDeployed: all(to{movingDelete, movingDelete}, movingCommit),
	evRetry:        stays(movingPrepare, movingCommit, movingDelete),
	evMoveDone:     all(to{placed, placed}, movingPrepare, movingCommit, movingDelete),
	evAbort:        all(to{placed, placed}, movingPrepare, movingCommit),
}

// TestTransitionTable checks next against the hand-written table for
// every (state, event, marks left) triple: the legal next state, or a
// refusal.
func TestTransitionTable(t *testing.T) {
	for ev := event(0); ev < numEvents; ev++ {
		if _, ok := wantTable[ev]; !ok {
			t.Fatalf("event %d is missing from the table", ev)
		}
		for _, s := range allStates {
			for _, marks := range []bool{true, false} {
				want, legal := appState(-1), false
				if w, ok := wantTable[ev][s]; ok {
					want = w.unmarked
					if marks {
						want = w.marked
					}
					legal = want >= 0
				}
				got, ok := next(s, ev, marks)
				if ok != legal || (ok && got != want) {
					t.Errorf("next(%v, event %d, marks=%v) = %v, %v; want %v, %v", s, ev, marks, got, ok, want, legal)
				}
			}
		}
	}
}

// TestEveryStateReachable: starting from a fresh submission, every
// state — and deletion from the ledger — can be reached.
func TestEveryStateReachable(t *testing.T) {
	seen := map[appState]bool{placing: true}
	frontier := []appState{placing}
	for len(frontier) > 0 {
		s := frontier[0]
		frontier = frontier[1:]
		for ev := event(0); ev < numEvents; ev++ {
			for _, marks := range []bool{true, false} {
				if n, ok := next(s, ev, marks); ok && !seen[n] {
					seen[n] = true
					frontier = append(frontier, n)
				}
			}
		}
	}
	for _, s := range allStates {
		if !seen[s] {
			t.Errorf("state %v is not reachable from placing", s)
		}
	}
}

// TestDeletePhaseOnlyMovesForward: past the point of no return a move
// has exactly two ways out — it completes, or the client's removal
// tombstones the entry — plus Forget, the simulation harness's
// deliberate hole. Nothing leads back to the source.
func TestDeletePhaseOnlyMovesForward(t *testing.T) {
	exits := map[event]appState{evMoveDone: placed, evRemove: tombstoned, evForget: gone}
	for ev := event(0); ev < numEvents; ev++ {
		for _, marks := range []bool{true, false} {
			n, ok := next(movingDelete, ev, marks)
			if !ok || n == movingDelete {
				continue
			}
			if want, isExit := exits[ev]; !isExit || n != want {
				t.Errorf("event %d leaves moving{delete} for %v", ev, n)
			}
		}
	}
}

// TestTransitionKeepsEntriesWellFormed drives the ledger's writer itself
// through every (state, event) pair on a real entry: it must agree with
// the table about legality, never change a refused entry, and leave
// every accepted one well-formed — a home exactly when placed or moving,
// a move record exactly when moving, out of the ledger exactly when
// gone.
func TestTransitionKeepsEntriesWellFormed(t *testing.T) {
	for _, s := range allStates {
		for ev := event(0); ev < numEvents; ev++ {
			for _, marked := range []bool{true, false} {
				b := NewBalancer(RouteConfig{}, nil, &metrics.FedStats{}, nil)
				if s != gone {
					a := &routedApp{id: "app", state: s}
					if s == placed || s.moving() {
						a.home = "m0"
					}
					if s.moving() {
						a.move = move{dest: "m1"}
					}
					if marked {
						a.marks = []string{"m2"}
					}
					b.routed["app"] = a
					b.ids = []string{"app"}
				}
				arg := evArg{member: "m1", entry: &routedApp{id: "app"}}
				switch ev {
				case evAdopt, evMarkCleared, evDuplicateDeleted:
					arg.member = "m2"
				case evVanish:
					arg.member = "m0"
				case evMark:
					arg.member = "m3"
				}
				// What the event itself does to the mark set decides what
				// "marks left" means for this pair.
				left := marked
				switch ev {
				case evMark:
					left = true
				case evRemove:
					left = marked || s == movingDelete
				case evAdopt, evMarkCleared, evDuplicateDeleted:
					if !marked {
						if _, ok := b.apply("app", ev, arg); ok {
							t.Errorf("%v: event %d accepted for a mark that is not there", s, ev)
						}
						continue
					}
					left = false
				}
				want, legal := next(s, ev, left)
				was, ok := b.apply("app", ev, arg)
				if ok != legal {
					t.Errorf("%v, event %d, marked=%v: apply ok=%v, table says %v", s, ev, marked, ok, legal)
					continue
				}
				if was.state != s {
					t.Errorf("%v, event %d: apply reported the entry as %v before the event", s, ev, was.state)
				}
				now := b.view("app")
				if !ok {
					if now.state != s || now.home != was.home {
						t.Errorf("%v, event %d: refused, yet the entry changed to %v home %q", s, ev, now.state, now.home)
					}
					continue
				}
				if now.state != want {
					t.Errorf("%v, event %d, marked=%v: entry is now %v, table says %v", s, ev, marked, now.state, want)
				}
				a := b.routed["app"]
				if (a == nil) != (want == gone) {
					t.Errorf("%v, event %d: in ledger = %v in state %v", s, ev, a != nil, want)
				}
				if a == nil {
					continue
				}
				if homed := want == placed || want.moving(); (a.home != "") != homed {
					t.Errorf("%v, event %d: state %v with home %q", s, ev, want, a.home)
				}
				if (a.move != move{}) != want.moving() {
					t.Errorf("%v, event %d: state %v with move record %v", s, ev, want, a.move)
				}
			}
		}
	}
}

// TestSnapshotMatchesSortedKeys holds the sorted ID list transition keeps
// to the ledger it indexes: after every event of random sequences over a
// small ID pool, legal or refused, snapshot equals the ledger's keys
// sorted.
func TestSnapshotMatchesSortedKeys(t *testing.T) {
	members := []string{"m0", "m1", "m2", "m3"}
	most := 0
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := NewBalancer(RouteConfig{}, nil, &metrics.FedStats{}, nil)
		for step := 0; step < 400; step++ {
			id := fmt.Sprintf("app-%d", rng.Intn(12))
			arg := evArg{member: members[rng.Intn(len(members))], entry: &routedApp{id: id}}
			if rng.Intn(2) == 0 {
				arg.marks = []string{members[rng.Intn(len(members))]}
			}
			b.apply(id, event(rng.Intn(int(numEvents))), arg)
			var keys []string
			for id := range b.routed {
				keys = append(keys, id)
			}
			sort.Strings(keys)
			if got := b.snapshot(); !slices.Equal(got, keys) {
				t.Fatalf("seed %d, step %d: snapshot %v, ledger keys %v", seed, step, got, keys)
			}
			most = max(most, len(keys))
		}
	}
	if most < 6 {
		t.Fatalf("the ledger never held more than %d entries: the sequences test little", most)
	}
}
