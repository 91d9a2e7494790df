package federation

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"medea/internal/metrics"
	"medea/internal/resource"
	"medea/internal/server"
)

// Cross-cluster migration is a crash-safe two-phase protocol driven from
// the balancer's control loop, with the ledger as its write-ahead log. A
// moving entry is in one of three phases (the moving states of
// ledger.go):
//
//	PREPARE  reserve the app's demand on the destination (server-side
//	         reservation with TTL, fit-checked against the scout report
//	         minus this round's debits);
//	COMMIT   submit the app to the destination and await "deployed";
//	DELETE   remove the copy from the source — past the point of no
//	         return, forward-only;
//	ABORT    (from PREPARE or COMMIT) release the reservation, mark the
//	         destination ambiguous if a submit attempt may have landed,
//	         keep the app home.
//
// Every wire operation is idempotent (reserve refreshes, submit answers
// 409 for a copy that already landed, DELETE answers 404 for one already
// gone), and the ledger records *intent* before each operation and the
// *transition* only after its acknowledged success. A crash between the
// two — simulated by the migration hook dropping the response — leaves
// the ledger one step behind reality, and the next Step simply re-issues
// the operation and converges. The existing reconciliation machinery is
// the cleanup path: an aborted COMMIT leaves an ambiguous mark on the
// destination (delete-or-adopt), a completed migration leaves one on the
// source (delete whatever a journal recovery resurrects), so at every
// crash point exactly one live copy survives.
//
// On top of the protocol sit the planned operations: DrainMember
// (cordon, then evacuate by priority with bounded concurrency and retry
// budgets) and Fleet.RollingRestart (drain → restart-from-journal →
// rejoin, gated on the failure detector re-confirming health).

// The migration protocol's and the drain's budgets.
const (
	// reservationTTL is the TTL requested for destination reservations. It
	// only has to outlive PREPARE→COMMIT, not the whole migration: the
	// reservation is consumed when the submission lands.
	reservationTTL = 5 * time.Second
	// migMaxAttempts bounds transient-failure retries per phase before the
	// migration aborts. The DELETE phase is exempt: past the point of no
	// return the protocol only moves forward.
	migMaxAttempts = 5
	// migMaxWaits bounds how many control rounds COMMIT waits for the
	// destination to deploy the copy before aborting.
	migMaxWaits = 64
	// drainConcurrency bounds in-flight migrations per draining member.
	drainConcurrency = 4
	// drainMaxRetries bounds how many migrations a drain starts per app
	// before leaving it behind.
	drainMaxRetries = 3
	// drainMaxRounds bounds a drain's total control rounds before it gives
	// up on whatever remains — a drain must terminate even when no
	// destination ever has capacity.
	drainMaxRounds = 128
)

// MigPoint names a crash point inside the migration protocol: the instant
// after a wire operation succeeded and before its effect is recorded in
// the ledger — exactly where a balancer crash would strand state.
type MigPoint string

const (
	// MigPointPostPrepare: the reservation is held, the ledger still says
	// PREPARE. Resume re-reserves (idempotent refresh) and proceeds.
	MigPointPostPrepare MigPoint = "post-prepare"
	// MigPointMidCommit: the destination acknowledged the copy, the
	// ledger does not know. Resume resubmits and adopts the 409.
	MigPointMidCommit MigPoint = "mid-commit"
	// MigPointPreDelete: the copy is deployed and the ledger has advanced
	// to DELETE, but the source still runs the app. Resume deletes it.
	MigPointPreDelete MigPoint = "pre-delete"
	// MigPointPostDelete: the source copy is gone, the ledger still says
	// DELETE. Resume re-deletes (404) and completes.
	MigPointPostDelete MigPoint = "post-delete"
)

// SetMigrationHook installs a crash-point hook for deterministic
// simulation: it fires at each MigPoint with the migrating app's ID, and
// a true return simulates a balancer crash at that instant — the
// response is dropped, no ledger transition is recorded, and the next
// Step resumes the protocol from its journaled state. Set before the
// control loop runs; nil disables.
func (b *Balancer) SetMigrationHook(fn func(point MigPoint, appID string) bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.migHook = fn
}

// fireHook runs the crash-point hook; true means "the balancer crashed
// here" and the caller must return without recording the transition.
func (b *Balancer) fireHook(point MigPoint, appID string) bool {
	b.mu.Lock()
	hook := b.migHook
	b.mu.Unlock()
	if hook == nil {
		return false
	}
	return hook(point, appID)
}

// Migrate starts a two-phase move of a placed app to dest. The move runs
// asynchronously in the control loop; MigrationOf observes progress.
func (b *Balancer) Migrate(appID, dest string) error {
	if b.scout.Member(dest) == nil {
		return fmt.Errorf("federation: unknown member %s", dest)
	}
	was, ok := b.apply(appID, evMove, evArg{member: dest, now: b.cfg.Clock()})
	switch {
	case ok:
		return nil
	case was.state == gone:
		return fmt.Errorf("federation: unknown app %s", appID)
	case was.state == tombstoned:
		return fmt.Errorf("federation: %s is being removed", appID)
	case was.home == "":
		return fmt.Errorf("federation: %s has no home to migrate from", appID)
	case was.state.moving():
		return fmt.Errorf("federation: %s is already migrating", appID)
	}
	return fmt.Errorf("federation: %s already lives on %s", appID, dest)
}

// MigrationOf reports an app's in-flight migration endpoints, if any.
func (b *Balancer) MigrationOf(appID string) (src, dest string, ok bool) {
	v := b.view(appID)
	if !v.state.moving() {
		return "", "", false
	}
	return v.home, v.move.dest, true
}

// Migrations returns the IDs of apps currently migrating, sorted.
func (b *Balancer) Migrations() []string {
	var ids []string
	for _, id := range b.snapshot() {
		if b.view(id).state.moving() {
			ids = append(ids, id)
		}
	}
	return ids
}

// MigrationDurations returns the start-to-complete latency of every
// finished migration (chaos harnesses derive p99 from it).
func (b *Balancer) MigrationDurations() []time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]time.Duration(nil), b.migDurations...)
}

// stepMoves advances every in-flight move one round, in app order
// (determinism: the control loop must visit moves in the same order for
// the same ledger state).
func (b *Balancer) stepMoves(snap []string, now time.Time, debits map[string]resource.Vector) {
	for _, id := range snap {
		v := b.view(id)
		if !v.state.moving() || now.Before(v.move.notBefore) {
			continue
		}
		switch v.state {
		case movingPrepare:
			b.stepPrepare(v, now, debits)
		case movingCommit:
			b.stepCommit(id, now)
		case movingDelete:
			b.stepDelete(id, v.home, now)
		}
	}
}

// stepPrepare reserves the app's demand on the destination.
func (b *Balancer) stepPrepare(v routedApp, now time.Time, debits map[string]resource.Vector) {
	id, dest := v.id, v.move.dest
	if b.scout.State(dest, now) == Dead {
		b.abortMove(id, "destination died before PREPARE")
		return
	}
	if !b.hasRoom(dest, v.demand, debits) {
		b.retryMove(id, now, "destination cannot fit the demand")
		return
	}
	// Write-ahead intent: after this point a reservation may exist on the
	// destination even if the request below appears to fail.
	if _, ok := b.apply(id, evIntent, evArg{}); !ok {
		return
	}
	// A struct of strings and integers always encodes.
	body, _ := json.Marshal(server.ReserveRequest{
		ID:     id,
		MemMB:  v.demand.MemoryMB,
		VCores: v.demand.VCores,
		TTLMs:  int64(reservationTTL / time.Millisecond),
	})
	code, err := b.call(dest, http.MethodPost, "/v1/reservations", body, nil)
	switch {
	case err != nil:
		b.retryMove(id, now, "reserve unreachable")
	case code == http.StatusOK, code == http.StatusCreated:
		if b.fireHook(MigPointPostPrepare, id) {
			return // crash: re-reserve (idempotent refresh) next round
		}
		if _, ok := b.apply(id, evReserved, evArg{}); !ok {
			return
		}
		debits[dest] = debits[dest].Add(v.demand)
		b.stepCommit(id, now)
	case code == http.StatusConflict:
		b.abortMove(id, "conflicting reservation on the destination")
	default: // 503: no fit after reservations, or destination draining
		b.retryMove(id, now, fmt.Sprintf("reserve refused (%d)", code))
	}
}

// stepCommit submits the copy to the destination, then polls until it
// deploys; on deployment the protocol crosses the point of no return
// into DELETE.
func (b *Balancer) stepCommit(id string, now time.Time) {
	v := b.view(id)
	if v.state != movingCommit {
		return
	}
	dest := v.move.dest
	if b.scout.State(dest, now) == Dead {
		b.abortMove(id, "destination died mid-COMMIT")
		return
	}
	if !v.move.submitted {
		// Write-ahead intent: the submit below may land without us seeing
		// the ack; an abort must know to mark the destination ambiguous.
		if _, ok := b.apply(id, evIntent, evArg{}); !ok {
			return
		}
		code, err := b.call(dest, http.MethodPost, "/v1/lras", v.body, nil)
		switch {
		case err != nil:
			b.retryMove(id, now, "submit unreachable")
			return
		case code == http.StatusAccepted, code == http.StatusConflict:
			// 409: a previously unacknowledged attempt landed — adopt it.
			if b.fireHook(MigPointMidCommit, id) {
				return // crash: resubmit next round, adopt the 409
			}
			if _, ok := b.apply(id, evCopyAcked, evArg{}); !ok {
				return
			}
		case code == http.StatusTooManyRequests, code == http.StatusServiceUnavailable:
			b.Stats.Add(metrics.Spillovers, 1)
			b.retryMove(id, now, fmt.Sprintf("destination shedding (%d)", code))
			return
		default:
			b.abortMove(id, fmt.Sprintf("destination rejected the copy (%d)", code))
			return
		}
	}
	var sr server.StatusResponse
	code, err := b.call(dest, http.MethodGet, appPath("/v1/lras", id), nil, &sr)
	switch {
	case err != nil:
		b.retryMove(id, now, "status unreachable")
	case code == http.StatusNotFound:
		b.apply(id, evCopyLost, evArg{})
		b.retryMove(id, now, "copy vanished from the destination")
	case code != http.StatusOK:
		b.retryMove(id, now, fmt.Sprintf("status %d from the destination", code))
	case sr.State == "deployed":
		if _, ok := b.apply(id, evCopyDeployed, evArg{}); !ok {
			return
		}
		if b.fireHook(MigPointPreDelete, id) {
			return // crash between observing the deployment and deleting
		}
		b.stepDelete(id, v.home, now)
	case live(sr.State): // queued or pending
		if was, ok := b.apply(id, evCopyWaiting, evArg{}); ok && was.move.waits >= migMaxWaits {
			b.abortMove(id, "destination never deployed the copy")
		}
	default:
		// shed/expired/failed/removed/rejected: the copy died on the
		// destination without holding resources; submit again.
		b.apply(id, evCopyLost, evArg{})
		b.retryMove(id, now, fmt.Sprintf("copy terminal on the destination (%s)", sr.State))
	}
}

// stepDelete removes the source copy. Past the point of no return the
// protocol only moves forward: retries are unbounded, and a dead source
// resolves through failover adopting the destination copy.
func (b *Balancer) stepDelete(id, src string, now time.Time) {
	code, err := b.call(src, http.MethodDelete, appPath("/v1/lras", id), nil, nil)
	if err != nil {
		b.retryMove(id, now, "source delete unreachable")
		return
	}
	if code != http.StatusOK && code != http.StatusNotFound {
		b.retryMove(id, now, fmt.Sprintf("source delete refused (%d)", code))
		return
	}
	// 404 is success: a crashed-and-resumed DELETE already went through.
	if b.fireHook(MigPointPostDelete, id) {
		return // crash: re-DELETE next round answers 404 and completes
	}
	b.apply(id, evMoveDone, evArg{now: now})
}

// abortMove rolls a move back: the app stays home, and the reservation
// is released (best-effort — the TTL sweep is the backstop).
func (b *Balancer) abortMove(id, reason string) {
	if was, ok := b.apply(id, evAbort, evArg{note: reason}); ok && was.move.reserved {
		_, _ = b.call(was.move.dest, http.MethodDelete, appPath("/v1/reservations", id), nil, nil)
	}
}

// retryMove backs a move off after a transient failure; outside the
// DELETE phase the retry budget converts persistent failure into an
// abort.
func (b *Balancer) retryMove(id string, now time.Time, reason string) {
	was, ok := b.apply(id, evRetry, evArg{now: now})
	if ok && was.state != movingDelete && was.move.attempts >= migMaxAttempts {
		b.abortMove(id, "retry budget exhausted: "+reason)
	}
}

// failoverViaMove gives a refugee whose source member died a better
// exit than re-placement: if its in-flight move already landed a copy on
// a live destination, adopt that copy. Otherwise a move that has not
// reached its DELETE phase is rolled back and the caller falls back to
// ordinary failover placement. In the DELETE phase the move completes
// regardless — the copy was seen deployed there, and whatever happened
// to it since is an ordinary loss at its new home, which anti-entropy or
// the destination's own failover repairs.
func (b *Balancer) failoverViaMove(v routedApp, now time.Time) bool {
	dest := v.move.dest
	if v.move.tried && b.scout.State(dest, now) != Dead {
		var sr server.StatusResponse
		code, err := b.call(dest, http.MethodGet, appPath("/v1/lras", v.id), nil, &sr)
		if err == nil && code == http.StatusOK && live(sr.State) {
			b.apply(v.id, evMoveDone, evArg{now: now})
			b.logf("federation: failover adopted the migration copy of %s on %s", v.id, dest)
			return true
		}
	}
	if v.state == movingDelete {
		b.apply(v.id, evMoveDone, evArg{now: now})
		return true
	}
	b.abortMove(v.id, "source died before the copy landed")
	return false
}

// Planned drains.

// drainState tracks one member's evacuation. The map of drains is
// guarded by b.mu; a drain's own fields belong to the control loop.
type drainState struct {
	cordoned bool
	rounds   int
	retries  map[string]int // moves started per app
}

// DrainMember starts evacuating a member: the member is cordoned (its
// server refuses new admissions and reports Draining so routing avoids
// it) and the control loop migrates its apps to ranked destinations with
// bounded concurrency and per-app retry budgets. Idempotent. The cordon
// persists after the drain completes — CancelDrain lifts it.
func (b *Balancer) DrainMember(id string) error {
	if b.scout.Member(id) == nil {
		return fmt.Errorf("federation: unknown member %s", id)
	}
	b.mu.Lock()
	started := b.drains[id] == nil
	if started {
		if b.drains == nil {
			b.drains = make(map[string]*drainState)
		}
		b.drains[id] = &drainState{retries: make(map[string]int)}
	}
	b.mu.Unlock()
	if started {
		b.Stats.Add(metrics.DrainsStarted, 1)
		b.logf("federation: draining member %s", id)
	}
	return nil
}

// CancelDrain stops an in-flight drain (in-flight migrations complete on
// their own) and lifts the member's cordon, best-effort.
func (b *Balancer) CancelDrain(id string) {
	active := b.endDrain(id)
	_, _ = b.call(id, http.MethodDelete, "/v1/drain", nil, nil)
	if active {
		b.logf("federation: drain of %s cancelled", id)
	}
}

// endDrain retires a drain's state and reports whether there was one.
func (b *Balancer) endDrain(id string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	active := b.drains[id] != nil
	delete(b.drains, id)
	return active
}

// drain returns a member's in-flight drain, nil when it has none.
func (b *Balancer) drain(id string) *drainState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.drains[id]
}

// DrainActive reports whether a member's drain is still evacuating.
func (b *Balancer) DrainActive(id string) bool { return b.drain(id) != nil }

// ActiveDrains returns the members currently draining, sorted.
func (b *Balancer) ActiveDrains() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var ids []string
	for id := range b.drains {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// stepDrains advances every drain one round, in member order.
func (b *Balancer) stepDrains(snap []string, now time.Time, debits map[string]resource.Vector) {
	for _, id := range b.ActiveDrains() {
		if d := b.drain(id); d != nil {
			b.stepDrain(snap, id, d, now, debits)
		}
	}
}

// stepDrain runs one evacuation round for one member: ensure the cordon,
// account what is left, complete or give up, then start moves up to the
// concurrency bound in priority order.
func (b *Balancer) stepDrain(snap []string, memberID string, d *drainState, now time.Time, debits map[string]resource.Vector) {
	d.rounds++
	dead := b.scout.State(memberID, now) == Dead
	if !d.cordoned && !dead {
		// An unreachable cordon is retried next round; evacuation proceeds
		// regardless — the cordon only stops new arrivals.
		if code, err := b.call(memberID, http.MethodPost, "/v1/drain", nil, nil); err == nil && code == http.StatusOK {
			d.cordoned = true
		}
	}

	var pending []routedApp
	inflight, exhausted := 0, 0
	for _, id := range snap {
		v := b.view(id)
		switch {
		case v.home != memberID:
		case v.state.moving():
			inflight++
		case d.retries[id] >= drainMaxRetries:
			exhausted++
		default:
			pending = append(pending, v)
		}
	}

	if inflight == 0 && len(pending) == 0 {
		// Evacuated — or emptied by an organic failover racing the drain
		// (the member died mid-drain and failover took its apps), in which
		// case the drain converges as a no-op.
		b.endDrain(memberID)
		b.Stats.Add(metrics.DrainsCompleted, 1)
		if exhausted > 0 {
			b.logf("federation: drain of %s completed; %d apps left behind (retry budget exhausted)", memberID, exhausted)
		} else {
			b.logf("federation: drain of %s complete", memberID)
		}
		return
	}
	if d.rounds > drainMaxRounds {
		b.endDrain(memberID)
		b.Stats.Add(metrics.DrainsCompleted, 1)
		b.logf("federation: drain of %s gave up after %d rounds; %d apps remain", memberID, d.rounds, len(pending)+inflight)
		return
	}
	if dead {
		// Failover owns a dead member's apps; the drain just waits for the
		// ledger to empty of them.
		return
	}
	// Evacuate highest-priority apps first: if the drain's budget runs
	// out, what is left behind is the least important work.
	sort.Slice(pending, func(i, j int) bool {
		if pending[i].priority != pending[j].priority {
			return pending[i].priority > pending[j].priority
		}
		return pending[i].id < pending[j].id
	})
	for _, v := range pending {
		if inflight >= drainConcurrency {
			break
		}
		dest := b.pickDest(v.demand, memberID, now, debits)
		if dest == "" {
			continue
		}
		if _, ok := b.apply(v.id, evMove, evArg{member: dest, now: b.cfg.Clock()}); ok {
			d.retries[v.id]++
			inflight++
		}
	}
}

// pickDest chooses a move's destination: the balancer's ranking,
// skipping the source, draining members, and members whose reported free
// capacity (minus this round's debits) cannot fit.
func (b *Balancer) pickDest(demand resource.Vector, src string, now time.Time, debits map[string]resource.Vector) string {
	for _, id := range b.scout.Rank(demand, now) {
		if id != src && !b.DrainActive(id) && b.hasRoom(id, demand, debits) {
			return id
		}
	}
	return ""
}
