package server

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"medea/internal/lra"
	"medea/internal/metrics"
	"medea/internal/resource"
)

// The ledger is the server's one row per app ID: where the app is in its
// life on this member, which is also everything this member has told the
// outside about it. Every row is in exactly one state,
//
//	queued    accepted (202), waiting in the bounded FIFO for the loop
//	pending   handed to the core; no cycle has placed it yet
//	deployed  placed; the core holds its containers
//	shed, expired, failed, removed, rejected
//	          how it left, remembered for the last maxOutcomes IDs
//
// plus one orthogonal mark, the capacity reservation held for the ID
// (reservation.go). Rows change only in transition, under mu, one event
// at a time; next is the table of which event is legal where (DESIGN
// §11). The ledger never calls the core or writes to the wire: its lock
// nests inside any other and is held only for map and slice work.
//
// Every move into a terminal state is numbered, 1, 2, 3, … for the life
// of the ledger, and the terminal list keeps its entries in that order:
// it is the outcome feed (outcomes), which tells a reader what left
// since the last number it saw without re-reading every app.

// appState is a ledger entry's lifecycle state; the names are the state
// strings of the wire.
type appState int

const (
	absent appState = iota // no lifecycle here: unknown, or kept only for its reservation
	queued
	pending
	deployed
	shed
	expired
	failed
	removed
	rejected
)

var stateNames = [...]string{"absent", "queued", "pending", "deployed", "shed", "expired", "failed", "removed", "rejected"}

func (s appState) String() string { return stateNames[s] }

// wire is the state a status read reports: the name, or "" for absent,
// which GET /v1/lras/{id} answers with a 404.
func (s appState) wire() string {
	if s == absent {
		return ""
	}
	return s.String()
}

// inCore reports whether the core holds the app.
func (s appState) inCore() bool { return s == pending || s == deployed }

// live reports whether the app holds, or will hold, resources here.
func (s appState) live() bool { return s == queued || s.inCore() }

// terminal reports whether the entry only remembers how the app left.
func (s appState) terminal() bool { return s >= shed }

// event is one kind of write to a ledger entry.
type event int

const (
	evSubmit  event = iota // the accept path claimed the ID and queued the submission
	evShed                 // a full queue evicted it for a higher priority
	evExpire               // its deadline passed in the queue
	evHandOff              // the loop took it from the queue to submit it to the core
	evRefuse               // the core refused the submission
	evDeploy               // a cycle placed it
	evReject               // a cycle dropped it: retry budget spent
	evCancel               // the client removed it before the loop took it
	evRemove               // the core tore it down for the client
	evRecover              // New found it in a core that outlived the last server
	evForget               // the terminal memory is full and this outcome is the oldest
	evReserve              // capacity is held for the ID
	evRefresh              // the same hold again: a new expiry
	evRelease              // the reserver gave the hold back
	evLapse                // the hold outlived its TTL
	evConsume              // the reserved submission has landed
	evFlush                // a cordon dropped every hold
	numEvents
)

// next is the state machine's table: the state ev leads to from s, and
// whether ev is legal there at all. reserved says whether the entry
// carries a reservation before the event.
func next(s appState, ev event, reserved bool) (appState, bool) {
	switch ev {
	case evSubmit:
		return queued, !s.live()
	case evShed:
		return shed, s == queued
	case evExpire:
		return expired, s == queued
	case evHandOff:
		return pending, s == queued
	case evRefuse:
		return failed, s == pending
	case evDeploy:
		return deployed, s == pending
	case evReject:
		return rejected, s == pending
	case evCancel:
		return removed, s == queued
	case evRemove:
		return removed, s.inCore()
	case evRecover:
		return pending, s == absent
	case evForget:
		return absent, s.terminal()
	case evReserve:
		// A live app needs no hold: the migrator's COMMIT will find it by
		// the usual 409.
		return s, !reserved && !s.live()
	case evRefresh:
		return s, reserved && !s.live()
	case evRelease, evLapse, evFlush:
		return s, reserved
	case evConsume:
		return s, reserved && s.live()
	}
	return s, false
}

// appEntry is the ledger entry of one app ID. Only transition writes to
// an entry in the ledger; everyone else works from a copy (view), safe
// to read without the lock because resv is replaced, never edited.
type appEntry struct {
	id    string
	state appState
	// app is the submission, kept while queued for the loop to hand on.
	app *lra.Application
	// priority orders shedding while queued.
	priority int
	// deadline is the propagated request deadline (zero = none). Queued
	// past it, the entry expires — the server does not schedule work whose
	// caller gave up; pending, it bounds the cycle's solver budget.
	deadline time.Time
	// resv is the reservation mark, nil when nothing is held.
	resv *reservation
	// seq numbers the entry's move into its terminal state (0 otherwise).
	seq uint64
}

// reservation is one held slice of capacity.
type reservation struct {
	demand  resource.Vector
	expires time.Time
}

type ledger struct {
	stats *metrics.ServerStats
	logf  func(format string, args ...any)
	cap   int // bounds the queue: the backpressure point between accept path and loop

	mu sync.Mutex
	// closed refuses further submits for good. Shutdown's final hand-off
	// sets it in the same hold of mu that empties the queue, so a submit
	// racing the shutdown is either handed off (and journaled) or cleanly
	// refused — never acknowledged and left in a queue nothing reads again.
	closed bool
	byID   map[string]*appEntry
	// The lists an entry's state and mark put it on.
	queue    []*appEntry          // queued, first in first out
	pending  map[string]*appEntry // pending: their deadlines bound the next cycle
	terminal []*appEntry          // terminal, oldest first, at most maxOutcomes
	reserved map[string]*appEntry // carrying a reservation
	held     resource.Vector      // the sum of their demands
	lines    []string             // what this hold of mu has to log
	// outcomeSeq is the number of the latest move into a terminal state;
	// forgotten, that of the latest outcome evForget dropped.
	outcomeSeq, forgotten uint64
}

func newLedger(capacity int, stats *metrics.ServerStats, logf func(string, ...any)) *ledger {
	return &ledger{
		stats: stats, logf: logf, cap: capacity,
		byID:     make(map[string]*appEntry),
		pending:  make(map[string]*appEntry),
		reserved: make(map[string]*appEntry),
	}
}

// evArg carries what an event needs beyond the entry itself.
type evArg struct {
	sub  *appEntry    // the submission (evSubmit); the newcomer a victim is shed for (evShed)
	resv *reservation // the hold (evReserve, evRefresh)
	err  error        // the core's refusal (evRefuse)
}

// transition is the ledger's only writer. With mu held it checks ev
// against the table, writes to the entry and the lists, counts the event
// and notes its log line. An entry left with neither a lifecycle nor a
// reservation is dropped.
func (l *ledger) transition(id string, ev event, arg evArg) bool {
	e := l.byID[id]
	if e == nil {
		e = &appEntry{id: id}
	}
	from := e.state
	to, ok := next(from, ev, e.resv != nil)
	if !ok {
		return false
	}
	switch ev {
	case evSubmit:
		e.app, e.priority, e.deadline = arg.sub.app, arg.sub.priority, arg.sub.deadline
		l.stats.Add(metrics.Admitted, 1)
	case evShed:
		l.stats.Add(metrics.ShedQueueFull, 1)
		l.notef("shed queued %s (priority %d) for %s (priority %d)", id, e.priority, arg.sub.id, arg.sub.priority)
	case evExpire:
		l.stats.Add(metrics.Expired, 1)
		l.notef("expired queued %s (deadline %s)", id, e.deadline.Format(time.RFC3339Nano))
	case evRefuse:
		l.stats.Add(metrics.SubmitErrors, 1)
		l.notef("core refused %s: %v", id, arg.err)
	case evCancel, evRemove:
		l.stats.Add(metrics.Removed, 1)
	case evReserve:
		e.resv, l.reserved[id], l.held = arg.resv, e, l.held.Add(arg.resv.demand)
		l.stats.Add(metrics.Reserved, 1)
		l.notef("reserved %v for %s", arg.resv.demand, id)
	case evRefresh:
		e.resv = arg.resv
	case evRelease:
		l.stats.Add(metrics.ReservationReleased, 1)
		l.notef("released reservation for %s", id)
	case evLapse:
		l.stats.Add(metrics.ReservationExpired, 1)
		l.notef("reservation for %s expired", id)
	case evConsume:
		l.stats.Add(metrics.ReservationConsumed, 1)
		l.notef("reservation for %s consumed by its submission", id)
	case evForget:
		l.forgotten = max(l.forgotten, e.seq)
	}
	switch ev {
	case evRelease, evLapse, evConsume, evFlush:
		l.held = l.held.Sub(e.resv.demand)
		e.resv = nil
		delete(l.reserved, id)
	}
	if from != to {
		switch {
		case from == queued:
			e.app = nil
			l.queue = without(l.queue, e)
		case from == pending:
			delete(l.pending, id)
		case from.terminal():
			l.terminal = without(l.terminal, e)
		}
		switch {
		case to == queued:
			l.queue = append(l.queue, e)
		case to == pending:
			l.pending[id] = e
		case to.terminal():
			l.outcomeSeq++
			e.seq = l.outcomeSeq
			l.terminal = append(l.terminal, e)
		}
		if to != queued && to != pending {
			e.deadline = time.Time{}
		}
		e.state = to
	}
	l.byID[id] = e
	if to == absent && e.resv == nil {
		delete(l.byID, id)
	}
	if len(l.terminal) > maxOutcomes {
		l.transition(l.terminal[0].id, evForget, evArg{})
	}
	return true
}

// notef notes a line for unlock to log.
func (l *ledger) notef(format string, args ...any) {
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

// unlock releases mu, then logs what the locked section noted: Logf is
// the caller's code and must not run under the lock.
func (l *ledger) unlock() {
	lines := l.lines
	l.lines = nil
	l.mu.Unlock()
	for _, line := range lines {
		l.logf("%s", line)
	}
}

// without returns list with e taken out, keeping the order. Taking the
// head — every hand-off, every forgotten outcome — moves nothing.
func without(list []*appEntry, e *appEntry) []*appEntry {
	i := slices.Index(list, e)
	if i == 0 {
		list[0] = nil
		return list[1:]
	}
	return slices.Delete(list, i, i+1)
}

// view returns a copy of the entry as it is now; an ID the ledger does
// not hold reads as absent.
func (l *ledger) view(id string) appEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.viewLocked(id)
}

func (l *ledger) viewLocked(id string) appEntry {
	if e := l.byID[id]; e != nil {
		return *e
	}
	return appEntry{id: id}
}

// states returns the wire state of each ID, in order, read in one hold
// of the lock.
func (l *ledger) states(ids []string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = l.viewLocked(id).state.wire()
	}
	return out
}

// outcomes returns the terminal entries numbered after after, in order,
// and the latest number. gap reports that an outcome numbered after after
// has been forgotten past maxOutcomes, and then no entry is returned: the
// reader has lost its place and must read the apps themselves. An ID
// resubmitted since its outcome is live again and no longer in the feed.
func (l *ledger) outcomes(after uint64) (out []Outcome, latest uint64, gap bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.forgotten > after {
		return nil, l.outcomeSeq, true
	}
	i, _ := slices.BinarySearchFunc(l.terminal, after, func(e *appEntry, after uint64) int {
		if e.seq <= after {
			return -1
		}
		return 1
	})
	for _, e := range l.terminal[i:] {
		out = append(out, Outcome{Seq: e.seq, ID: e.id, State: e.state.String()})
	}
	return out, l.outcomeSeq, false
}

// apply runs one event against one entry, reporting whether it was
// legal; a refused event changes nothing.
func (l *ledger) apply(id string, ev event, arg evArg) bool {
	l.mu.Lock()
	defer l.unlock()
	return l.transition(id, ev, arg)
}

// each runs evs in order against every ID, leaving an ID at its first
// refused event: how the loop settles a cycle (the placed are deployed,
// the rejected terminal, the rest stay pending) and how New adopts what
// the core already holds.
func (l *ledger) each(ids []string, evs ...event) {
	l.mu.Lock()
	defer l.unlock()
	for _, id := range ids {
		for _, ev := range evs {
			if !l.transition(id, ev, evArg{}) {
				break
			}
		}
	}
}

// submitResult is the outcome of a submit attempt.
type submitResult int

const (
	submitQueued    submitResult = iota // sub is queued (possibly evicting a victim)
	submitDuplicate                     // the ID is live already
	submitClosed                        // shutdown closed the ledger
	submitFull                          // the queue is full and sub outranks nothing in it
)

// submit claims sub's ID and queues it in one hold of the lock: of any
// number of concurrent submissions of one ID exactly one is queued. A
// full queue sheds its lowest-priority entry for a newcomer that outranks
// it — the youngest of that priority, so equal-priority work keeps its
// FIFO order — and refuses the newcomer otherwise. was is the state the
// ID was found in.
func (l *ledger) submit(sub *appEntry) (was appState, res submitResult) {
	l.mu.Lock()
	defer l.unlock()
	was = l.viewLocked(sub.id).state
	switch {
	case was.live():
		return was, submitDuplicate
	case l.closed:
		return was, submitClosed
	case len(l.queue) >= l.cap:
		var victim *appEntry
		for _, cand := range l.queue {
			if victim == nil || cand.priority <= victim.priority {
				victim = cand
			}
		}
		if victim == nil || victim.priority >= sub.priority {
			return was, submitFull
		}
		l.transition(victim.id, evShed, evArg{sub: sub})
	}
	l.transition(sub.id, evSubmit, evArg{sub: sub})
	return was, submitQueued
}

// reserveResult enumerates the outcomes of a reserve attempt.
type reserveResult int

const (
	reserveCreated reserveResult = iota
	reserveRefreshed
	reservePresent
	reserveMismatch
	reserveNoFit
)

// reserve places or refreshes the hold for id: the same demand again
// refreshes it (idempotent PREPARE retries), a different one conflicts,
// and a new hold must fit in free minus everything already held.
func (l *ledger) reserve(id string, r *reservation, free resource.Vector) reserveResult {
	l.mu.Lock()
	defer l.unlock()
	switch e := l.viewLocked(id); {
	case e.state.live():
		return reservePresent
	case e.resv != nil && e.resv.demand != r.demand:
		return reserveMismatch
	case e.resv != nil:
		l.transition(id, evRefresh, evArg{resv: r})
		return reserveRefreshed
	case !r.demand.Fits(free.Sub(l.held)):
		return reserveNoFit
	}
	l.transition(id, evReserve, evArg{resv: r})
	return reserveCreated
}

// gauges returns the queue depth, the demand held, the hold count and
// the latest outcome number.
func (l *ledger) gauges() (depth int, held resource.Vector, holds int, outcome uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.queue), l.held, len(l.reserved), l.outcomeSeq
}

// sweep opens a loop iteration: holds past their TTL lapse, holds whose
// submission has landed (queued or in the core) are consumed — the held
// space is real allocation now — and queued entries past their deadline
// expire. Holds are visited by ID, for deterministic logs.
func (l *ledger) sweep(now time.Time) {
	l.mu.Lock()
	defer l.unlock()
	if len(l.reserved) > 0 {
		holds := make([]*appEntry, 0, len(l.reserved))
		for _, e := range l.reserved {
			holds = append(holds, e)
		}
		sort.Slice(holds, func(i, j int) bool { return holds[i].id < holds[j].id })
		for _, e := range holds {
			if now.After(e.resv.expires) {
				l.transition(e.id, evLapse, evArg{})
			} else if e.state.live() {
				l.transition(e.id, evConsume, evArg{})
			}
		}
	}
	for i := 0; i < len(l.queue); {
		if e := l.queue[i]; !e.deadline.IsZero() && e.deadline.Before(now) {
			l.transition(e.id, evExpire, evArg{}) // takes e out; the rest keep their order
		} else {
			i++
		}
	}
}

// handOff moves every queued entry to pending and returns the
// submissions, first in first out, for the caller to submit to the core;
// the last one, at shutdown, also closes the ledger. The caller holds the
// core lock from before this call until the core has answered for each
// (a refusal comes back as evRefuse): see the invariant on Server.
func (l *ledger) handOff(last bool) []*lra.Application {
	l.mu.Lock()
	defer l.unlock()
	l.closed = l.closed || last
	if len(l.queue) == 0 {
		return nil
	}
	apps := make([]*lra.Application, 0, len(l.queue))
	for len(l.queue) > 0 {
		apps = append(apps, l.queue[0].app)
		l.transition(l.queue[0].id, evHandOff, evArg{})
	}
	return apps
}

// tightestDeadline returns the earliest request deadline among the
// entries pending in the core, if any carries one.
func (l *ledger) tightestDeadline() (d time.Time, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.pending {
		if !e.deadline.IsZero() && (!ok || e.deadline.Before(d)) {
			d, ok = e.deadline, true
		}
	}
	return d, ok
}

// flush drops every hold: a cordoned member makes no promises.
func (l *ledger) flush() {
	l.mu.Lock()
	defer l.unlock()
	if n := len(l.reserved); n > 0 {
		l.notef("cordon flushed %d reservations", n)
	}
	for id := range l.reserved {
		l.transition(id, evFlush, evArg{})
	}
}
