package federation

import (
	"fmt"
	"sort"
	"time"

	"medea/internal/resource"
)

// The ledger is the balancer's one row per submission: who owns the app
// now, and what is being done to it. Every row is in exactly one state,
//
//	placing    no home yet: a Submit is routing it, or routing failed and
//	           its timed-out attempts (marks) await reconciliation
//	placed     live on its home member
//	moving     a two-phase move to another member is in flight, in one of
//	           three phases: prepare (reserving capacity), commit (copy
//	           submitted, awaiting deployment), delete (removing the source
//	           copy — past the point of no return, forward-only)
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

func (s appState) String() string {
	switch s {
	case placing:
		return "placing"
	case placed:
		return "placed"
	case movingPrepare:
		return "moving{prepare}"
	case movingCommit:
		return "moving{commit}"
	case movingDelete:
		return "moving{delete}"
	case degraded:
		return "degraded"
	case tombstoned:
		return "tombstoned"
	}
	return "gone"
}

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
// needs. Only transition writes to it after it entered the ledger.
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
	// move is the in-flight move's record, nil unless moving.
	move *move
	// seq orders degraded entries first-in first-out.
	seq uint64
	// ambiguous is the mark set (nil until the first mark).
	ambiguous map[string]bool
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

// appView is a value copy of a ledger entry, taken under the lock: what
// every reader outside transition works from.
type appView struct {
	id       string
	known    bool // the ledger has an entry
	state    appState
	home     string
	move     move     // zero unless moving
	marks    []string // sorted; nil when none
	seq      uint64
	body     []byte
	demand   resource.Vector
	priority int
}

func viewOf(id string, a *routedApp) appView {
	if a == nil {
		return appView{id: id, state: gone}
	}
	v := appView{
		id: id, known: true, state: a.state, home: a.home, seq: a.seq,
		body: a.body, demand: a.demand, priority: a.priority,
	}
	if a.move != nil {
		v.move = *a.move
	}
	if len(a.ambiguous) > 0 {
		v.marks = make([]string, 0, len(a.ambiguous))
		for m := range a.ambiguous {
			v.marks = append(v.marks, m)
		}
		sort.Strings(v.marks)
	}
	return v
}

// view returns the entry's current value.
func (b *Balancer) view(id string) appView {
	b.mu.Lock()
	defer b.mu.Unlock()
	return viewOf(id, b.routed[id])
}

// snapshot returns the ledger's IDs, sorted: the one list a control
// round works through. Phases read each entry's current state from it,
// so a later phase sees what an earlier one did to an entry.
func (b *Balancer) snapshot() []string {
	b.mu.Lock()
	ids := make([]string, 0, len(b.routed))
	for id := range b.routed {
		ids = append(ids, id)
	}
	b.mu.Unlock()
	sort.Strings(ids)
	return ids
}

// evArg carries what an event needs beyond the entry itself.
type evArg struct {
	// member is the member the event is about: the new home, the marked
	// member, the move's destination, the home that lost the app.
	member string
	// marks are the timed-out attempts a routing gathered (evPlace from
	// Submit, evRouteFailed).
	marks map[string]bool
	// entry is the new entry (evSubmit).
	entry *routedApp
	// now is the control round's time (evRetry, evMoveDone).
	now time.Time
	// note is the member-reported state (evVanish) or the reason (evAbort).
	note string
}

// apply runs one event against one entry: it takes the lock, lets
// transition validate and perform the write, and emits the transition's
// log line after releasing it. It returns the entry as it was before
// the event and whether the event was legal; a refused event changes
// nothing.
func (b *Balancer) apply(id string, ev event, arg evArg) (was appView, ok bool) {
	b.mu.Lock()
	a := b.routed[id]
	was = viewOf(id, a)
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
// counts it, and returns the line to log. It never touches the wire:
// callers record intent before a request and the outcome after its
// acknowledgement, so a crash between the two leaves the ledger one
// step behind reality and the next round re-issues an idempotent
// operation.
func (b *Balancer) transition(a *routedApp, ev event, arg evArg) (line string, ok bool) {
	from := gone
	marks := 0
	if a != nil {
		from, marks = a.state, len(a.ambiguous)
	}
	switch ev {
	case evMark:
		marks++
	case evRouteFailed:
		marks += len(arg.marks)
	case evAdopt, evMarkCleared, evDuplicateDeleted:
		if a == nil || !a.ambiguous[arg.member] {
			return "", false
		}
		marks--
	case evMove:
		if a != nil && a.home == arg.member {
			return "", false
		}
	case evVanish:
		if a != nil && a.home != arg.member {
			return "", false
		}
	}
	to, ok := next(from, ev, marks > 0)
	if !ok {
		return "", false
	}

	mark := func(member string) {
		if a.ambiguous == nil {
			a.ambiguous = make(map[string]bool)
		}
		a.ambiguous[member] = true
	}
	switch ev {
	case evSubmit:
		a = arg.entry
		b.routed[a.id] = a
	case evPlace:
		for m := range arg.marks {
			mark(m)
		}
		delete(a.ambiguous, arg.member)
		switch from {
		case placing:
			b.Stats.AddRouted()
		case placed:
			b.Stats.AddFailoverReplaced()
			line = fmt.Sprintf("federation: %s re-homed %s -> %s", a.id, a.home, arg.member)
		case degraded:
			b.Stats.AddDegradedRecovered()
			line = fmt.Sprintf("federation: %s recovered from degraded mode -> %s", a.id, arg.member)
		}
		a.home = arg.member
	case evRouteFailed:
		b.Stats.AddRouteFailure()
		for m := range arg.marks {
			mark(m)
		}
		if len(arg.marks) > 0 {
			line = fmt.Sprintf("federation: routing %s failed with %d ambiguous attempts; awaiting reconciliation", a.id, len(arg.marks))
		}
	case evAdopt:
		delete(a.ambiguous, arg.member)
		a.home = arg.member
		b.Stats.AddReconciled()
		line = fmt.Sprintf("federation: adopted landed copy of %s on %s", a.id, arg.member)
	case evStrand:
		a.home = ""
		b.Stats.AddDegradedQueued()
		line = fmt.Sprintf("federation: %s degraded: no surviving capacity", a.id)
	case evVanish:
		a.home = ""
		b.Stats.AddRerouted()
		line = fmt.Sprintf("federation: %s vanished from %s (state %q); re-queued for placement", a.id, arg.member, arg.note)
	case evMark:
		mark(arg.member)
	case evMarkCleared:
		delete(a.ambiguous, arg.member)
	case evDuplicateDeleted:
		delete(a.ambiguous, arg.member)
		b.Stats.AddReconciled()
		line = fmt.Sprintf("federation: removed duplicate %s from %s (home %s)", a.id, arg.member, a.home)
	case evRemove:
		if from == movingDelete {
			mark(a.home)
			mark(a.move.dest)
			a.move = nil
		}
		a.home = ""
	case evMove:
		a.move = &move{dest: arg.member, started: b.now()}
		b.Stats.AddMigrationStarted()
		line = fmt.Sprintf("federation: migration %s: %s -> %s started", a.id, a.home, arg.member)
	case evIntent:
		if from == movingPrepare {
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
		round := a.move.attempts
		if round > 6 {
			round = 6 // keep the exponential shift bounded
		}
		a.move.notBefore = arg.now.Add(b.routeBackoff(a.id, round))
	case evMoveDone:
		// The source keeps a mark: if its DELETE ack was dropped, or a
		// crashed source recovers the copy from its journal,
		// reconciliation deletes whatever reappears there.
		mv, src := a.move, a.home
		a.move, a.home = nil, mv.dest
		delete(a.ambiguous, mv.dest)
		mark(src)
		b.migDurations = append(b.migDurations, arg.now.Sub(mv.started))
		b.Stats.AddMigrationCompleted()
		line = fmt.Sprintf("federation: migration %s: %s -> %s complete", a.id, src, mv.dest)
	case evAbort:
		// A destination that may hold a copy is marked, so reconciliation
		// deletes or adopts it.
		mv := a.move
		a.move = nil
		if mv.tried {
			mark(mv.dest)
		}
		b.Stats.AddMigrationAborted()
		line = fmt.Sprintf("federation: migration %s: %s -> %s aborted: %s", a.id, a.home, mv.dest, arg.note)
	}
	if to == degraded && from != degraded {
		b.degradedSeq++
		a.seq = b.degradedSeq
	}
	a.state = to
	if to == gone {
		delete(b.routed, a.id)
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
