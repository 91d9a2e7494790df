package federation

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"medea/internal/metrics"
	"medea/internal/resource"
)

// The ledger is the balancer's one row per submission: who owns the app
// now, and what is being done to it. Every row is in exactly one state,
//
//	placing    no home yet: a Submit is routing it, or routing failed and
//	           its timed-out attempts (marks) await reconciliation
//	placed     live on its home member
//	moving     a two-phase move to another member is in flight, in its
//	           prepare, commit or delete phase (migrator.go)
//	degraded   no member can hold it; parked, FIFO, retried every round
//	tombstoned the client removed it while marks were outstanding; kept
//	           until reconciliation has deleted whatever those turn up
//
// plus one orthogonal set, the ambiguous marks: members that may hold a
// copy the ledger did not place there (a timed-out attempt that landed,
// a dead member's journal, the far end of an aborted or finished move).
// Rows change only in transition, under b.mu, one event at a time; next
// is the table of which event is legal where.

// appState is a ledger entry's lifecycle state. The zero value is
// placing: an entry starts there.
type appState int

const (
	placing appState = iota
	placed
	movingPrepare
	movingCommit
	movingDelete
	degraded
	tombstoned
	// gone is not a state an entry can be observed in: it is where
	// deletion from the ledger leads, and where a new entry comes from.
	gone
)

var stateNames = [...]string{"placing", "placed", "moving{prepare}", "moving{commit}", "moving{delete}", "degraded", "tombstoned", "gone"}

func (s appState) String() string { return stateNames[s] }

// moving reports whether a two-phase move is in flight.
func (s appState) moving() bool { return s >= movingPrepare && s <= movingDelete }

// event is one kind of write to a ledger entry.
type event int

const (
	evSubmit           event = iota // a client submission is recorded, before its first wire operation
	evPlace                         // a member acknowledged the (re-)submission: it is the home now
	evRouteFailed                   // routing ended with no home; only the marks it gathered remain
	evAdopt                         // a marked member turned out to hold a live copy of a homeless app
	evStrand                        // the home died and no survivor can hold the app
	evVanish                        // the home answers that it no longer has the app
	evMark                          // a member may hold a copy the ledger did not place
	evMarkCleared                   // the marked member holds nothing live
	evDuplicateDeleted              // the marked member's live copy was deleted
	evRemove                        // the client tore the app down
	evForget                        // the simulation harness's deliberate hole (Forget)
	evMove                          // a move to another member starts
	evIntent                        // write-ahead: the phase's wire operation is about to be sent
	evReserved                      // the destination acknowledged the reservation
	evCopyAcked                     // the destination acknowledged the copy
	evCopyLost                      // the copy is gone from the destination, or terminal there
	evCopyWaiting                   // the copy is queued on the destination, not deployed yet
	evCopyDeployed                  // the copy is deployed: point of no return
	evRetry                         // a transient failure: back off, count it against the phase
	evMoveDone                      // the destination copy is the app now
	evAbort                         // the move is rolled back; the app stays home
	numEvents
)

// next is the state machine's table: the state ev leads to from s, and
// whether ev is legal there at all. marks says whether any ambiguous
// mark is left once the event's own change to the mark set is applied:
// a homeless entry (placing, tombstoned) exists only for its marks.
func next(s appState, ev event, marks bool) (appState, bool) {
	// keep is where an event that leaves the state alone leads.
	keep := func(s appState) (appState, bool) {
		if (s == placing || s == tombstoned) && !marks {
			return gone, true
		}
		return s, true
	}
	switch ev {
	case evSubmit:
		return placing, s == gone
	case evPlace:
		return placed, s == placing || s == placed || s == degraded
	case evRouteFailed:
		if s == placing {
			return keep(s)
		}
	case evAdopt:
		return placed, s == placing || s == degraded
	case evStrand, evVanish:
		return degraded, s == placed
	case evMark:
		return s, s != gone
	case evMarkCleared, evDuplicateDeleted:
		if s != gone {
			return keep(s)
		}
	case evRemove:
		switch s {
		case placed, degraded, tombstoned:
			return keep(tombstoned)
		case placing:
			// Without marks the routing is still in flight: nobody knows
			// yet where the app will land.
			return tombstoned, marks
		case movingDelete:
			// Past the point of no return there is nothing to roll back to:
			// both endpoints are marked and reconciliation deletes whatever
			// either still holds. Earlier phases abort first.
			return tombstoned, true
		}
	case evForget:
		return gone, s != gone
	case evMove:
		return movingPrepare, s == placed
	case evIntent:
		return s, s == movingPrepare || s == movingCommit
	case evReserved:
		return movingCommit, s == movingPrepare
	case evCopyAcked, evCopyLost, evCopyWaiting:
		return s, s == movingCommit
	case evCopyDeployed:
		return movingDelete, s == movingCommit
	case evRetry:
		return s, s.moving()
	case evMoveDone:
		return placed, s.moving()
	case evAbort:
		return placed, s == movingPrepare || s == movingCommit
	}
	return s, false
}

// routedApp is the ledger entry of one submission: enough to place it
// again elsewhere (the original body), its state, and what the state
// needs. Only transition writes to an entry in the ledger; everyone else
// works from a copy (view), which is safe to read without the lock
// because marks is replaced, never edited in place.
type routedApp struct {
	id     string
	body   []byte
	demand resource.Vector
	// priority is the submission's shedding priority, reused by drains to
	// evacuate the most important apps first.
	priority int

	state appState
	// home is the member that holds the app: set in placed and moving
	// (where it is the move's source), empty otherwise.
	home string
	// move is the in-flight move's record, zero unless moving.
	move move
	// seq orders degraded entries first-in first-out.
	seq uint64
	// marks is the ambiguous mark set, sorted.
	marks []string
}

// move is the ledger's record of one in-flight move. reserved and tried
// are written *before* their wire operations (write-ahead intent): after
// a crash they tell the resumed protocol — and an abort — what may exist
// on the destination even though no transition was recorded.
type move struct {
	dest      string
	reserved  bool // a reservation may exist on the destination
	tried     bool // a submit attempt may have landed on the destination
	submitted bool // the destination acknowledged the copy (202/409)
	attempts  int  // transient failures in the current phase
	waits     int  // rounds spent waiting for the copy to deploy
	notBefore time.Time
	started   time.Time
}

// withMark and withoutMark return the mark set changed, in a new slice.
func withMark(marks []string, member string) []string {
	if slices.Contains(marks, member) {
		return marks
	}
	out := append(slices.Clone(marks), member)
	sort.Strings(out)
	return out
}

func withoutMark(marks []string, member string) []string {
	var out []string
	for _, m := range marks {
		if m != member {
			out = append(out, m)
		}
	}
	return out
}

// entryOf copies an entry; an ID the ledger does not hold reads as gone.
func entryOf(id string, a *routedApp) routedApp {
	if a == nil {
		return routedApp{id: id, state: gone}
	}
	return *a
}

// view returns a copy of the entry as it is now.
func (b *Balancer) view(id string) routedApp {
	b.mu.Lock()
	defer b.mu.Unlock()
	return entryOf(id, b.routed[id])
}

// snapshot returns the ledger's IDs, sorted: the one list a control
// round works through. Phases read each entry's current state from it,
// so a later phase sees what an earlier one did to an entry. It is a
// copy of b.ids, which transition keeps sorted as entries come and go.
func (b *Balancer) snapshot() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return slices.Clone(b.ids)
}

// evArg carries what an event needs beyond the entry itself.
type evArg struct {
	// member is the member the event is about: the new home, the marked
	// member, the move's destination, the home that lost the app.
	member string
	// marks are the timed-out attempts a routing gathered (evPlace from
	// Submit, evRouteFailed).
	marks []string
	// entry is the new entry (evSubmit).
	entry *routedApp
	// now is the time of the event (evMove, evRetry, evMoveDone).
	now time.Time
	// note is the member-reported state (evVanish) or the reason (evAbort).
	note string
}

// apply runs one event against one entry: it takes the lock, lets
// transition validate and perform the write, and emits the transition's
// log line after releasing it. It returns the entry as it was before
// the event and whether the event was legal; a refused event changes
// nothing.
func (b *Balancer) apply(id string, ev event, arg evArg) (was routedApp, ok bool) {
	b.mu.Lock()
	a := b.routed[id]
	was = entryOf(id, a)
	line, ok := b.transition(a, ev, arg)
	b.mu.Unlock()
	if line != "" {
		b.logf("%s", line)
	}
	return was, ok
}

// transition is the ledger's only writer. With b.mu held it checks ev
// against the table, performs the event's write to the entry (state,
// home, move record, intent flags, marks, deletion from the ledger),
// counts it, and returns the line to log. It never touches the wire
// (migrator.go says what callers record before and after a request).
func (b *Balancer) transition(a *routedApp, ev event, arg evArg) (line string, ok bool) {
	was := entryOf("", a)
	marks := len(was.marks)
	switch ev {
	case evMark:
		marks++
	case evRouteFailed:
		marks += len(arg.marks)
	case evAdopt, evMarkCleared, evDuplicateDeleted:
		if !slices.Contains(was.marks, arg.member) {
			return "", false
		}
		marks--
	case evMove:
		if was.home == arg.member {
			return "", false
		}
	case evVanish:
		if was.home != arg.member {
			return "", false
		}
	}
	to, ok := next(was.state, ev, marks > 0)
	if !ok {
		return "", false
	}

	switch ev {
	case evSubmit:
		a = arg.entry
		b.routed[a.id] = a
		i, _ := slices.BinarySearch(b.ids, a.id)
		b.ids = slices.Insert(b.ids, i, a.id)
	case evPlace:
		for _, m := range arg.marks {
			a.marks = withMark(a.marks, m)
		}
		a.marks = withoutMark(a.marks, arg.member)
		switch was.state {
		case placing:
			b.Stats.Add(metrics.Routed, 1)
		case placed:
			b.Stats.Add(metrics.FailoverReplaced, 1)
			line = fmt.Sprintf("federation: %s re-homed %s -> %s", a.id, a.home, arg.member)
		case degraded:
			b.Stats.Add(metrics.DegradedRecovered, 1)
			line = fmt.Sprintf("federation: %s recovered from degraded mode -> %s", a.id, arg.member)
		}
		a.home = arg.member
	case evRouteFailed:
		b.Stats.Add(metrics.RouteFailures, 1)
		for _, m := range arg.marks {
			a.marks = withMark(a.marks, m)
		}
		if len(arg.marks) > 0 {
			line = fmt.Sprintf("federation: routing %s failed with %d ambiguous attempts; awaiting reconciliation", a.id, len(arg.marks))
		}
	case evAdopt:
		a.marks = withoutMark(a.marks, arg.member)
		a.home = arg.member
		b.Stats.Add(metrics.Reconciled, 1)
		line = fmt.Sprintf("federation: adopted landed copy of %s on %s", a.id, arg.member)
	case evStrand:
		a.home = ""
		b.Stats.Add(metrics.DegradedQueued, 1)
		line = fmt.Sprintf("federation: %s degraded: no surviving capacity", a.id)
	case evVanish:
		a.home = ""
		b.Stats.Add(metrics.Rerouted, 1)
		line = fmt.Sprintf("federation: %s vanished from %s (state %q); re-queued for placement", a.id, arg.member, arg.note)
	case evMark:
		a.marks = withMark(a.marks, arg.member)
	case evMarkCleared:
		a.marks = withoutMark(a.marks, arg.member)
	case evDuplicateDeleted:
		a.marks = withoutMark(a.marks, arg.member)
		b.Stats.Add(metrics.Reconciled, 1)
		line = fmt.Sprintf("federation: removed duplicate %s from %s (home %s)", a.id, arg.member, a.home)
	case evRemove:
		if was.state == movingDelete {
			a.marks = withMark(withMark(a.marks, a.home), a.move.dest)
		}
		a.home, a.move = "", move{}
	case evMove:
		a.move = move{dest: arg.member, started: arg.now}
		b.Stats.Add(metrics.MigrationsStarted, 1)
		line = fmt.Sprintf("federation: migration %s: %s -> %s started", a.id, a.home, arg.member)
	case evIntent:
		if was.state == movingPrepare {
			a.move.reserved = true
		} else {
			a.move.tried = true
		}
	case evReserved:
		a.move.attempts = 0
		line = fmt.Sprintf("federation: migration %s: reserved on %s", a.id, a.move.dest)
	case evCopyAcked:
		a.move.submitted = true
	case evCopyLost:
		a.move.submitted = false
	case evCopyWaiting:
		a.move.waits++
	case evCopyDeployed:
		a.move.attempts = 0
	case evRetry:
		a.move.attempts++
		// The exponent stops growing at 6 to keep the shift bounded.
		a.move.notBefore = arg.now.Add(b.routeBackoff(a.id, min(a.move.attempts, 6)))
	case evMoveDone:
		// The source keeps a mark: if its DELETE ack was dropped, or a
		// crashed source recovers the copy from its journal,
		// reconciliation deletes whatever reappears there.
		a.marks = withMark(withoutMark(a.marks, a.move.dest), a.home)
		a.home, a.move = a.move.dest, move{}
		b.migDurations = append(b.migDurations, arg.now.Sub(was.move.started))
		b.Stats.Add(metrics.MigrationsCompleted, 1)
		line = fmt.Sprintf("federation: migration %s: %s -> %s complete", a.id, was.home, a.home)
	case evAbort:
		// A destination that may hold a copy is marked, so reconciliation
		// deletes or adopts it.
		if a.move.tried {
			a.marks = withMark(a.marks, a.move.dest)
		}
		a.move = move{}
		b.Stats.Add(metrics.MigrationsAborted, 1)
		line = fmt.Sprintf("federation: migration %s: %s -> %s aborted: %s", a.id, a.home, was.move.dest, arg.note)
	}
	if to == degraded && was.state != degraded {
		b.degradedSeq++
		a.seq = b.degradedSeq
	}
	a.state = to
	if to == gone {
		delete(b.routed, a.id)
		if i, ok := slices.BinarySearch(b.ids, a.id); ok {
			b.ids = slices.Delete(b.ids, i, i+1)
		}
	}
	return line, true
}

// live reports whether a member-reported status holds, or will hold,
// resources on that member.
func live(state string) bool {
	return state == "queued" || state == "pending" || state == "deployed"
}

// terminal reports whether a member-reported status is final: the copy
// holds nothing and never will again.
func terminal(state string) bool {
	switch state {
	case "rejected", "removed", "shed", "expired", "failed":
		return true
	}
	return false
}
