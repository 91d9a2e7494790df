package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"medea/internal/resource"
	"medea/internal/server"
)

// Cross-cluster migration is a crash-safe two-phase protocol driven from
// the balancer's control loop, with the ledger as its write-ahead log:
//
//	PREPARE  reserve the app's demand on the destination (server-side
//	         reservation with TTL, fit-checked against the scout report
//	         minus this round's debits);
//	COMMIT   submit the app to the destination, await "deployed", then
//	         DELETE the copy from the source;
//	ABORT    release the reservation, mark the destination ambiguous if
//	         a submit attempt may have landed, keep the app home.
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
// budgets), Fleet.RollingRestart (drain → restart-from-journal → rejoin,
// gated on the failure detector re-confirming health), and a periodic
// rebalance trigger on dominant-share imbalance.

// MigrateConfig tunes the migration protocol and the planned operations
// built on it.
type MigrateConfig struct {
	// ReservationTTL is the TTL requested for destination reservations
	// (0 = 5s). It only has to outlive PREPARE→COMMIT, not the whole
	// migration: the reservation is consumed when the submission lands.
	ReservationTTL time.Duration
	// RebalanceEvery triggers a dominant-share imbalance check every N
	// control rounds (0 = disabled).
	RebalanceEvery int
	// RebalanceSpread is the dominant-share gap between the busiest and
	// calmest live member that triggers a rebalancing migration (0 =
	// 0.25).
	RebalanceSpread float64
}

func (c MigrateConfig) reservationTTL() time.Duration {
	if c.ReservationTTL > 0 {
		return c.ReservationTTL
	}
	return 5 * time.Second
}

// The migration protocol's and the drain's budgets.
const (
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

func (c MigrateConfig) rebalanceSpread() float64 {
	if c.RebalanceSpread > 0 {
		return c.RebalanceSpread
	}
	return 0.25
}

// migPhase is a migration's position in the two-phase protocol.
type migPhase int

const (
	migPrepare migPhase = iota // reserving capacity on the destination
	migCommit                  // copy submitted / awaiting deployment
	migDelete                  // deleting the source copy (forward-only)
)

func (p migPhase) String() string {
	switch p {
	case migPrepare:
		return "prepare"
	case migCommit:
		return "commit"
	case migDelete:
		return "delete"
	}
	return "unknown"
}

// migration is the ledger's record of one in-flight move. The reserved
// and tried flags are written *before* their wire operations (write-ahead
// intent): after a crash they tell the resumed protocol — and ABORT —
// what may exist on the destination even though no transition was
// recorded.
type migration struct {
	src, dest string
	phase     migPhase
	reserved  bool // a reservation may exist on the destination
	tried     bool // a submit attempt may have landed on the destination
	submitted bool // the destination acknowledged the copy (202/409)
	attempts  int  // transient failures in the current phase
	waits     int  // rounds spent waiting for the copy to deploy
	notBefore time.Time
	started   time.Time
}

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

// Migrate starts a two-phase move of a homed app to dest. The move runs
// asynchronously in the control loop; MigrationOf observes progress.
func (b *Balancer) Migrate(appID, dest string) error {
	if b.scout.Member(dest) == nil {
		return fmt.Errorf("federation: unknown member %s", dest)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	a := b.routed[appID]
	switch {
	case a == nil:
		return fmt.Errorf("federation: unknown app %s", appID)
	case a.removed:
		return fmt.Errorf("federation: %s is being removed", appID)
	case a.degraded || a.home == "":
		return fmt.Errorf("federation: %s has no home to migrate from", appID)
	case a.mig != nil:
		return fmt.Errorf("federation: %s is already migrating", appID)
	case a.home == dest:
		return fmt.Errorf("federation: %s already lives on %s", appID, dest)
	}
	b.startMigrationLocked(a, dest)
	return nil
}

// startMigrationLocked records a new migration in the ledger; must be
// called with b.mu held, a homed and not already migrating.
func (b *Balancer) startMigrationLocked(a *routedApp, dest string) {
	a.mig = &migration{src: a.home, dest: dest, phase: migPrepare, started: b.now()}
	b.Stats.AddMigrationStarted()
	b.logf("federation: migration %s: %s -> %s started", a.id, a.home, dest)
}

// MigrationOf reports an app's in-flight migration endpoints, if any.
func (b *Balancer) MigrationOf(appID string) (src, dest string, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a := b.routed[appID]
	if a == nil || a.mig == nil {
		return "", "", false
	}
	return a.mig.src, a.mig.dest, true
}

// Migrations returns the IDs of apps currently migrating, sorted.
func (b *Balancer) Migrations() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var ids []string
	for id, a := range b.routed {
		if a.mig != nil {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// MigrationDurations returns the start-to-complete latency of every
// finished migration (chaos harnesses derive p99 from it).
func (b *Balancer) MigrationDurations() []time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]time.Duration(nil), b.migDurations...)
}

// stepMigrations advances every in-flight migration one round, in app
// order (determinism: the control loop must visit migrations in the same
// order for the same ledger state).
func (b *Balancer) stepMigrations(now time.Time, debits map[string]resource.Vector) {
	b.mu.Lock()
	var ids []string
	for id, a := range b.routed {
		if a.mig != nil {
			ids = append(ids, id)
		}
	}
	b.mu.Unlock()
	sort.Strings(ids)
	for _, id := range ids {
		b.stepMigration(id, now, debits)
	}
}

// stepMigration advances one migration: resolve takeovers first (a
// failover or removal that re-homed the app while it was moving), then
// dispatch on phase.
func (b *Balancer) stepMigration(id string, now time.Time, debits map[string]resource.Vector) {
	b.mu.Lock()
	a := b.routed[id]
	if a == nil || a.mig == nil {
		b.mu.Unlock()
		return
	}
	mig := a.mig
	if a.removed {
		b.mu.Unlock()
		b.abortMigration(a, "app removed")
		return
	}
	if a.home != mig.src {
		home := a.home
		b.mu.Unlock()
		if home == mig.dest {
			// Failover already adopted the destination copy mid-move.
			b.completeMigration(a, now)
		} else {
			b.abortMigration(a, "re-homed during migration")
		}
		return
	}
	if now.Before(mig.notBefore) {
		b.mu.Unlock()
		return
	}
	phase := mig.phase
	b.mu.Unlock()
	switch phase {
	case migPrepare:
		b.stepPrepare(a, now, debits)
	case migCommit:
		b.stepCommit(a, now, debits)
	case migDelete:
		b.stepDelete(a, now)
	}
}

// stepPrepare reserves the app's demand on the destination.
func (b *Balancer) stepPrepare(a *routedApp, now time.Time, debits map[string]resource.Vector) {
	b.mu.Lock()
	if a.mig == nil {
		b.mu.Unlock()
		return
	}
	dest := a.mig.dest
	demand := a.demand
	b.mu.Unlock()
	if b.scout.State(dest, now) == Dead {
		b.abortMigration(a, "destination died before PREPARE")
		return
	}
	rep, ok := b.scout.LastReport(dest)
	if !ok || rep.Draining || !demand.Fits(rep.Free.Sub(debits[dest])) {
		b.migRetry(a, now, "destination cannot fit the demand")
		return
	}
	// Write-ahead intent: after this point a reservation may exist on the
	// destination even if the request below appears to fail.
	b.mu.Lock()
	if a.mig == nil {
		b.mu.Unlock()
		return
	}
	a.mig.reserved = true
	b.mu.Unlock()
	code, err := b.reserve(dest, a.id, demand)
	switch {
	case err != nil:
		b.migRetry(a, now, "reserve unreachable")
	case code == http.StatusOK, code == http.StatusCreated:
		if b.fireHook(MigPointPostPrepare, a.id) {
			return // crash: re-reserve (idempotent refresh) next round
		}
		b.mu.Lock()
		if a.mig == nil {
			b.mu.Unlock()
			return
		}
		a.mig.phase = migCommit
		a.mig.attempts = 0
		b.mu.Unlock()
		debits[dest] = debits[dest].Add(demand)
		b.logf("federation: migration %s: reserved on %s", a.id, dest)
		b.stepCommit(a, now, debits)
	case code == http.StatusConflict:
		b.abortMigration(a, "conflicting reservation on the destination")
	default: // 503: no fit after reservations, or destination draining
		b.migRetry(a, now, fmt.Sprintf("reserve refused (%d)", code))
	}
}

// stepCommit submits the copy to the destination, then polls until it
// deploys; on deployment the protocol crosses the point of no return
// into DELETE.
func (b *Balancer) stepCommit(a *routedApp, now time.Time, debits map[string]resource.Vector) {
	b.mu.Lock()
	if a.mig == nil || a.mig.phase != migCommit {
		b.mu.Unlock()
		return
	}
	dest := a.mig.dest
	submitted := a.mig.submitted
	body := a.body
	b.mu.Unlock()
	if b.scout.State(dest, now) == Dead {
		b.abortMigration(a, "destination died mid-COMMIT")
		return
	}
	if !submitted {
		// Write-ahead intent: the submit below may land without us seeing
		// the ack; ABORT must know to mark the destination ambiguous.
		b.mu.Lock()
		if a.mig == nil {
			b.mu.Unlock()
			return
		}
		a.mig.tried = true
		b.mu.Unlock()
		code, err := b.trySubmit(dest, body)
		switch {
		case err != nil:
			b.migRetry(a, now, "submit unreachable")
			return
		case code == http.StatusAccepted, code == http.StatusConflict:
			// 409: a previously unacknowledged attempt landed — adopt it.
			if b.fireHook(MigPointMidCommit, a.id) {
				return // crash: resubmit next round, adopt the 409
			}
			b.mu.Lock()
			if a.mig == nil {
				b.mu.Unlock()
				return
			}
			a.mig.submitted = true
			b.mu.Unlock()
		case code == http.StatusTooManyRequests, code == http.StatusServiceUnavailable:
			b.Stats.AddSpillover()
			b.migRetry(a, now, fmt.Sprintf("destination shedding (%d)", code))
			return
		default:
			b.abortMigration(a, fmt.Sprintf("destination rejected the copy (%d)", code))
			return
		}
	}
	code, sr, err := b.getStatus(dest, a.id)
	switch {
	case err != nil:
		b.migRetry(a, now, "status unreachable")
	case code == http.StatusNotFound:
		b.mu.Lock()
		if a.mig != nil {
			a.mig.submitted = false
		}
		b.mu.Unlock()
		b.migRetry(a, now, "copy vanished from the destination")
	case code != http.StatusOK:
		b.migRetry(a, now, fmt.Sprintf("status %d from the destination", code))
	case sr.State == "deployed":
		b.mu.Lock()
		if a.mig == nil {
			b.mu.Unlock()
			return
		}
		a.mig.phase = migDelete
		a.mig.attempts = 0
		b.mu.Unlock()
		if b.fireHook(MigPointPreDelete, a.id) {
			return // crash between observing the deployment and deleting
		}
		b.stepDelete(a, now)
	case sr.State == "queued", sr.State == "pending":
		b.mu.Lock()
		waits := 0
		if a.mig != nil {
			a.mig.waits++
			waits = a.mig.waits
		}
		b.mu.Unlock()
		if waits > migMaxWaits {
			b.abortMigration(a, "destination never deployed the copy")
		}
	default:
		// shed/expired/failed/removed/rejected: the copy died on the
		// destination without holding resources; submit again.
		b.mu.Lock()
		if a.mig != nil {
			a.mig.submitted = false
		}
		b.mu.Unlock()
		b.migRetry(a, now, fmt.Sprintf("copy terminal on the destination (%s)", sr.State))
	}
}

// stepDelete removes the source copy. Past the point of no return the
// protocol only moves forward: retries are unbounded, and a dead source
// resolves through failover adopting the destination copy.
func (b *Balancer) stepDelete(a *routedApp, now time.Time) {
	b.mu.Lock()
	if a.mig == nil || a.mig.phase != migDelete {
		b.mu.Unlock()
		return
	}
	src := a.mig.src
	b.mu.Unlock()
	code, err := b.removeCode(src, a.id)
	if err != nil {
		b.migRetry(a, now, "source delete unreachable")
		return
	}
	if code != http.StatusOK && code != http.StatusNotFound {
		b.migRetry(a, now, fmt.Sprintf("source delete refused (%d)", code))
		return
	}
	// 404 is success: a crashed-and-resumed DELETE already went through.
	if b.fireHook(MigPointPostDelete, a.id) {
		return // crash: re-DELETE next round answers 404 and completes
	}
	b.completeMigration(a, now)
}

// completeMigration re-homes the app onto the destination. The source
// keeps an ambiguous mark: if its DELETE ack was dropped, or a crashed
// source recovers the copy from its journal, reconciliation deletes
// whatever reappears there — never two live copies.
func (b *Balancer) completeMigration(a *routedApp, now time.Time) {
	b.mu.Lock()
	mig := a.mig
	if mig == nil {
		b.mu.Unlock()
		return
	}
	a.mig = nil
	a.home = mig.dest
	a.degraded = false
	delete(a.ambiguous, mig.dest)
	a.ambiguous[mig.src] = true
	b.migDurations = append(b.migDurations, now.Sub(mig.started))
	b.mu.Unlock()
	b.Stats.AddMigrationCompleted()
	b.logf("federation: migration %s: %s -> %s complete", a.id, mig.src, mig.dest)
}

// abortMigration rolls a migration back: the app stays home, the
// reservation is released (best-effort — the TTL sweep is the backstop),
// and a destination that may hold a copy is marked ambiguous so
// reconciliation deletes or adopts it. Never called past the point of no
// return (the DELETE phase moves forward instead).
func (b *Balancer) abortMigration(a *routedApp, reason string) {
	b.mu.Lock()
	mig := a.mig
	if mig == nil {
		b.mu.Unlock()
		return
	}
	a.mig = nil
	if mig.tried {
		a.ambiguous[mig.dest] = true
	}
	b.mu.Unlock()
	if mig.reserved {
		_, _ = b.unreserve(mig.dest, a.id)
	}
	b.Stats.AddMigrationAborted()
	b.logf("federation: migration %s: %s -> %s aborted: %s", a.id, mig.src, mig.dest, reason)
}

// migRetry backs a migration off after a transient failure; outside the
// DELETE phase the retry budget converts persistent failure into ABORT.
func (b *Balancer) migRetry(a *routedApp, now time.Time, reason string) {
	b.mu.Lock()
	mig := a.mig
	if mig == nil {
		b.mu.Unlock()
		return
	}
	mig.attempts++
	exhausted := mig.phase != migDelete && mig.attempts > migMaxAttempts
	if !exhausted {
		round := mig.attempts
		if round > 6 {
			round = 6 // keep the exponential shift bounded
		}
		mig.notBefore = now.Add(b.routeBackoff(a.id, round))
	}
	b.mu.Unlock()
	if exhausted {
		b.abortMigration(a, "retry budget exhausted: "+reason)
	}
}

// failoverViaMigration gives a refugee whose source member died a better
// exit than re-placement: if its in-flight migration already landed a
// copy on a live destination, adopt that copy. Otherwise the migration
// aborts and the caller falls back to ordinary failover placement.
func (b *Balancer) failoverViaMigration(a *routedApp, now time.Time) bool {
	b.mu.Lock()
	mig := a.mig
	if mig == nil {
		b.mu.Unlock()
		return false
	}
	dest := mig.dest
	tried := mig.tried
	b.mu.Unlock()
	if tried && b.scout.State(dest, now) != Dead {
		code, sr, err := b.getStatus(dest, a.id)
		if err == nil && code == http.StatusOK &&
			(sr.State == "queued" || sr.State == "pending" || sr.State == "deployed") {
			b.completeMigration(a, now)
			b.logf("federation: failover adopted the migration copy of %s on %s", a.id, dest)
			return true
		}
	}
	b.abortMigration(a, "source died before the copy landed")
	return false
}

// Planned drains.

// drainState tracks one member's evacuation.
type drainState struct {
	member   string
	cordoned bool
	rounds   int
	retries  map[string]int // migrations started per app
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
	defer b.mu.Unlock()
	if b.drains == nil {
		b.drains = make(map[string]*drainState)
	}
	if b.drains[id] != nil {
		return nil
	}
	b.drains[id] = &drainState{member: id, retries: make(map[string]int)}
	b.Stats.AddDrainStarted()
	b.logf("federation: draining member %s", id)
	return nil
}

// CancelDrain stops an in-flight drain (in-flight migrations complete on
// their own) and lifts the member's cordon, best-effort.
func (b *Balancer) CancelDrain(id string) {
	if b.scout.Member(id) == nil {
		return
	}
	b.mu.Lock()
	active := b.drains[id] != nil
	delete(b.drains, id)
	b.mu.Unlock()
	_, _ = b.uncordon(id)
	if active {
		b.logf("federation: drain of %s cancelled", id)
	}
}

// DrainActive reports whether a member's drain is still evacuating.
func (b *Balancer) DrainActive(id string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.drains[id] != nil
}

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
func (b *Balancer) stepDrains(now time.Time, debits map[string]resource.Vector) {
	b.mu.Lock()
	var ids []string
	for id := range b.drains {
		ids = append(ids, id)
	}
	b.mu.Unlock()
	sort.Strings(ids)
	for _, id := range ids {
		b.stepDrain(id, now, debits)
	}
}

// stepDrain runs one evacuation round for one member: ensure the cordon,
// account what is left, complete or give up, then start migrations up to
// the concurrency bound in priority order.
func (b *Balancer) stepDrain(memberID string, now time.Time, debits map[string]resource.Vector) {
	b.mu.Lock()
	d := b.drains[memberID]
	if d == nil {
		b.mu.Unlock()
		return
	}
	d.rounds++
	rounds := d.rounds
	cordoned := d.cordoned
	b.mu.Unlock()

	dead := b.scout.State(memberID, now) == Dead
	if !cordoned && !dead {
		if code, err := b.cordon(memberID); err == nil && code == http.StatusOK {
			b.mu.Lock()
			if d := b.drains[memberID]; d != nil {
				d.cordoned = true
			}
			b.mu.Unlock()
		}
		// An unreachable cordon is retried next round; evacuation proceeds
		// regardless — the cordon only stops new arrivals.
	}

	b.mu.Lock()
	d = b.drains[memberID]
	if d == nil {
		b.mu.Unlock()
		return
	}
	var pending []*routedApp
	inflight, exhausted := 0, 0
	for _, a := range b.routed {
		if a.mig != nil && a.mig.src == memberID {
			inflight++
			continue
		}
		if a.home == memberID && !a.degraded && !a.removed && a.mig == nil {
			if d.retries[a.id] >= drainMaxRetries {
				exhausted++
				continue
			}
			pending = append(pending, a)
		}
	}
	b.mu.Unlock()

	if inflight == 0 && len(pending) == 0 {
		// Evacuated — or emptied by an organic failover racing the drain
		// (the member died mid-drain and failover took its apps), in which
		// case the drain converges as a no-op.
		b.finishDrain(memberID)
		if exhausted > 0 {
			b.logf("federation: drain of %s completed; %d apps left behind (retry budget exhausted)", memberID, exhausted)
		} else {
			b.logf("federation: drain of %s complete", memberID)
		}
		return
	}
	if rounds > drainMaxRounds {
		b.finishDrain(memberID)
		b.logf("federation: drain of %s gave up after %d rounds; %d apps remain", memberID, rounds, len(pending)+inflight)
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
	for _, a := range pending {
		if inflight >= drainConcurrency {
			break
		}
		dest := b.pickDest(a, memberID, now, debits)
		if dest == "" {
			continue
		}
		b.mu.Lock()
		if a.mig == nil && a.home == memberID && !a.removed && !a.degraded {
			if d := b.drains[memberID]; d != nil {
				d.retries[a.id]++
			}
			b.startMigrationLocked(a, dest)
			inflight++
		}
		b.mu.Unlock()
	}
}

// finishDrain retires a drain's state and counts its completion.
func (b *Balancer) finishDrain(memberID string) {
	b.mu.Lock()
	delete(b.drains, memberID)
	b.mu.Unlock()
	b.Stats.AddDrainCompleted()
}

// pickDest chooses a migration destination for an app: the balancer's
// ranking, skipping the source, draining members, and members whose
// reported free capacity (minus this round's debits) cannot fit.
func (b *Balancer) pickDest(a *routedApp, src string, now time.Time, debits map[string]resource.Vector) string {
	b.mu.Lock()
	demand := a.demand
	b.mu.Unlock()
	for _, id := range b.scout.Rank(demand, now) {
		if id == src {
			continue
		}
		b.mu.Lock()
		draining := b.drains[id] != nil
		b.mu.Unlock()
		if draining {
			continue
		}
		rep, ok := b.scout.LastReport(id)
		if !ok || rep.Draining || !demand.Fits(rep.Free.Sub(debits[id])) {
			continue
		}
		return id
	}
	return ""
}

// stepRebalance periodically checks dominant-share imbalance across live
// members and migrates one small app from the busiest to the calmest
// when the spread crosses the threshold — continuous, gentle correction
// rather than bulk moves.
func (b *Balancer) stepRebalance(now time.Time, debits map[string]resource.Vector) {
	every := b.cfg.Migrate.RebalanceEvery
	if every <= 0 {
		return
	}
	b.mu.Lock()
	b.stepSeq++
	seq := b.stepSeq
	b.mu.Unlock()
	if seq%every != 0 {
		return
	}
	type memberLoad struct {
		id    string
		share float64
	}
	var loads []memberLoad
	for _, id := range b.scout.MemberIDs() {
		if b.scout.State(id, now) == Dead {
			continue
		}
		b.mu.Lock()
		draining := b.drains[id] != nil
		b.mu.Unlock()
		rep, ok := b.scout.LastReport(id)
		if !ok || draining || rep.Draining ||
			rep.Total.MemoryMB <= 0 || rep.Total.VCores <= 0 {
			continue
		}
		memShare := float64(rep.Total.MemoryMB-rep.Free.MemoryMB) / float64(rep.Total.MemoryMB)
		cpuShare := float64(rep.Total.VCores-rep.Free.VCores) / float64(rep.Total.VCores)
		share := memShare
		if cpuShare > share {
			share = cpuShare
		}
		loads = append(loads, memberLoad{id: id, share: share})
	}
	if len(loads) < 2 {
		return
	}
	sort.Slice(loads, func(i, j int) bool {
		if loads[i].share != loads[j].share {
			return loads[i].share > loads[j].share
		}
		return loads[i].id < loads[j].id
	})
	busiest, calmest := loads[0], loads[len(loads)-1]
	if busiest.share-calmest.share <= b.cfg.Migrate.rebalanceSpread() {
		return
	}
	rep, ok := b.scout.LastReport(calmest.id)
	if !ok {
		return
	}
	free := rep.Free.Sub(debits[calmest.id])
	// Move the smallest fitting app (deterministic tie-break by ID): the
	// cheapest correction that narrows the spread.
	b.mu.Lock()
	var cand *routedApp
	for _, a := range b.routed {
		if a.home != busiest.id || a.degraded || a.removed || a.mig != nil {
			continue
		}
		if !a.demand.Fits(free) {
			continue
		}
		if cand == nil || smallerDemand(a, cand) {
			cand = a
		}
	}
	if cand != nil {
		b.startMigrationLocked(cand, calmest.id)
		b.Stats.AddRebalanceMove()
	}
	b.mu.Unlock()
}

// smallerDemand orders apps by demand (memory, then vcores, then ID) for
// the rebalancer's deterministic pick.
func smallerDemand(a, b *routedApp) bool {
	if a.demand.MemoryMB != b.demand.MemoryMB {
		return a.demand.MemoryMB < b.demand.MemoryMB
	}
	if a.demand.VCores != b.demand.VCores {
		return a.demand.VCores < b.demand.VCores
	}
	return a.id < b.id
}

// Wire helpers.

// reserve posts a capacity reservation to a member (migration PREPARE).
func (b *Balancer) reserve(memberID, appID string, demand resource.Vector) (int, error) {
	m := b.scout.Member(memberID)
	if m == nil {
		return 0, fmt.Errorf("unknown member %s", memberID)
	}
	body, err := json.Marshal(server.ReserveRequest{
		ID:     appID,
		MemMB:  demand.MemoryMB,
		VCores: demand.VCores,
		TTLMs:  int64(b.cfg.Migrate.reservationTTL() / time.Millisecond),
	})
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), b.cfg.attemptTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+memberID+"/v1/reservations", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := m.Client().Do(req)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}

// unreserve releases a reservation on a member (migration ABORT);
// idempotent server-side.
func (b *Balancer) unreserve(memberID, appID string) (int, error) {
	return b.bareRequest(memberID, http.MethodDelete, "/v1/reservations/"+appID)
}

// cordon flips a member into operator draining.
func (b *Balancer) cordon(memberID string) (int, error) {
	return b.bareRequest(memberID, http.MethodPost, "/v1/drain")
}

// uncordon lifts a member's operator draining.
func (b *Balancer) uncordon(memberID string) (int, error) {
	return b.bareRequest(memberID, http.MethodDelete, "/v1/drain")
}

// bareRequest issues a body-less request to a member under the attempt
// timeout and returns the status code.
func (b *Balancer) bareRequest(memberID, method, path string) (int, error) {
	m := b.scout.Member(memberID)
	if m == nil {
		return 0, fmt.Errorf("unknown member %s", memberID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), b.cfg.attemptTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, "http://"+memberID+path, nil)
	if err != nil {
		return 0, err
	}
	resp, err := m.Client().Do(req)
	if err != nil {
		return 0, err
	}
	resp.Body.Close()
	return resp.StatusCode, nil
}
