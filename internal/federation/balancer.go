package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"sync"
	"time"

	"medea/internal/metrics"
	"medea/internal/resource"
	"medea/internal/server"
)

// RouteConfig tunes the balancer's submit path.
type RouteConfig struct {
	// AttemptTimeout bounds one submit attempt against one member
	// (0 = 250ms).
	AttemptTimeout time.Duration
	// MaxRounds is how many full passes over the ranked member list a
	// submission gets before routing gives up (0 = 3).
	MaxRounds int
	// Sleep is the backoff sleeper (nil = time.Sleep). Tests inject a
	// recorder to keep routing deterministic and instant.
	Sleep func(time.Duration)
	// Clock is the time source (nil = time.Now).
	Clock func() time.Time
	// Migrate tunes cross-cluster migration, drains and rebalancing.
	Migrate MigrateConfig
}

func (c RouteConfig) attemptTimeout() time.Duration {
	if c.AttemptTimeout > 0 {
		return c.AttemptTimeout
	}
	return 250 * time.Millisecond
}

func (c RouteConfig) maxRounds() int {
	if c.MaxRounds > 0 {
		return c.MaxRounds
	}
	return 3
}

// routeBackoffBase and routeBackoffCap shape the jittered exponential
// backoff between routing rounds.
const (
	routeBackoffBase = 10 * time.Millisecond
	routeBackoffCap  = 250 * time.Millisecond
)

// routedApp is the balancer's ledger entry for one acknowledged
// submission: enough to re-place it elsewhere (the original body), where
// it lives now, and which members might hold a duplicate from a
// timed-out attempt.
type routedApp struct {
	id       string
	body     []byte
	demand   resource.Vector
	home     string
	degraded bool
	// priority is the submission's shedding priority, reused by drains to
	// evacuate the most important apps first.
	priority int
	// mig is the app's in-flight two-phase migration, nil when not
	// moving. Ledger writes to it follow write-ahead discipline — intent
	// flags before each wire operation, phase transitions only after the
	// acknowledged success — so a crash at any instant resumes cleanly
	// (see migrator.go).
	mig *migration
	// ambiguous lists members whose submit attempt timed out after the
	// request may have been accepted: until reconciled, the app might be
	// duplicated there.
	ambiguous map[string]bool
	// removed marks an entry the client tore down while ambiguous marks
	// were still outstanding: the entry lingers as a tombstone so
	// reconciliation can delete any copy that did land, then GC it —
	// without the tombstone, a duplicate from a timed-out attempt would
	// outlive the removal and leak its resources forever.
	removed bool
}

// Balancer routes LRA submissions across the federation's members using
// the scout's health and capacity knowledge, and owns the cross-cluster
// lifecycle afterwards: spillover when a member sheds load, failover
// when the detector confirms a member dead, a degraded queue when the
// survivors cannot absorb the refugees, and reconciliation of timed-out
// attempts that may have landed.
type Balancer struct {
	cfg   RouteConfig
	scout *Scout
	Stats *metrics.FedStats

	mu     sync.Mutex
	routed map[string]*routedApp
	// degradedOrder preserves FIFO recovery order for degraded apps.
	degradedOrder []string
	// homeCursor rotates the anti-entropy sweep through the homed apps so
	// every entry is verified within len(ledger)/homeCheckBatch rounds.
	homeCursor int
	// recheck holds apps whose last home verification failed transiently;
	// they are retried every round ahead of the rotating window instead of
	// waiting out a full ledger rotation. Bounded to homeCheckBatch.
	recheck map[string]bool
	// drains tracks in-flight member evacuations by member ID.
	drains map[string]*drainState
	// migDurations records completed migrations' start-to-finish latency.
	migDurations []time.Duration
	// stepSeq counts control rounds for the periodic rebalance trigger.
	stepSeq int
	// migHook is the deterministic-simulation crash-point hook (see
	// SetMigrationHook).
	migHook func(MigPoint, string) bool

	logf func(format string, args ...any)
}

// NewBalancer builds a balancer over the scout's members.
func NewBalancer(cfg RouteConfig, scout *Scout, stats *metrics.FedStats, logf func(string, ...any)) *Balancer {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Balancer{cfg: cfg, scout: scout, Stats: stats, routed: make(map[string]*routedApp), logf: logf}
}

func (b *Balancer) now() time.Time {
	if b.cfg.Clock != nil {
		return b.cfg.Clock()
	}
	return time.Now()
}

func (b *Balancer) sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	if b.cfg.Sleep != nil {
		b.cfg.Sleep(d)
		return
	}
	time.Sleep(d)
}

// routeBackoff is the jittered exponential backoff between routing
// rounds: pure-function jitter (FNV of app ID and round), the repo-wide
// idiom, so concurrent submissions back off on distinct schedules
// without shared RNG state.
func (b *Balancer) routeBackoff(appID string, round int) time.Duration {
	d := routeBackoffBase << uint(round)
	if d > routeBackoffCap {
		d = routeBackoffCap
	}
	window := d / 2
	if window <= 0 {
		return d
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", appID, round)
	return d + time.Duration(h.Sum64()%uint64(window))
}

// totalDemand sums a submission's container demand for capacity-aware
// ranking.
func totalDemand(req *server.SubmitRequest) resource.Vector {
	var total resource.Vector
	for _, g := range req.Groups {
		total = total.Add(resource.New(g.MemoryMB*int64(g.Count), g.VCores*int64(g.Count)))
	}
	return total
}

// Submit routes one submission: members are tried in the scout's rank
// order; a 202 homes the app, overload answers (429/503) spill over to
// the next member, timeouts are remembered as possible duplicates, and
// exhausted rounds are retried after a jittered exponential backoff.
// It returns the member that accepted the app.
func (b *Balancer) Submit(req *server.SubmitRequest) (home string, err error) {
	// The ledger is the router's single source of truth for an ID: a
	// resubmission of an app it already tracks must not route again —
	// another member would 202 it and the fleet would run two live
	// copies, with no ambiguous mark to ever reconcile the first.
	b.mu.Lock()
	if a := b.routed[req.ID]; a != nil {
		home, removed := a.home, a.removed
		b.mu.Unlock()
		if removed {
			return "", fmt.Errorf("federation: %s is still being removed", req.ID)
		}
		if home != "" {
			return home, nil // idempotent: already routed there
		}
		return "", fmt.Errorf("federation: %s already submitted (degraded or reconciling)", req.ID)
	}
	b.mu.Unlock()
	body, err := json.Marshal(req)
	if err != nil {
		return "", fmt.Errorf("federation: encoding submission %s: %w", req.ID, err)
	}
	demand := totalDemand(req)
	ambiguous := make(map[string]bool)
	for round := 0; round < b.cfg.maxRounds(); round++ {
		if round > 0 {
			b.Stats.AddRouteRetry()
			b.sleep(b.routeBackoff(req.ID, round))
		}
		order := b.scout.Rank(demand, b.now())
		for _, id := range order {
			code, routeErr := b.trySubmit(id, body)
			switch {
			case routeErr != nil:
				if errors.Is(routeErr, context.DeadlineExceeded) {
					// The attempt timed out after the member may have
					// accepted it: remember the possible duplicate.
					ambiguous[id] = true
				}
				continue
			case code == http.StatusAccepted, code == http.StatusConflict:
				// 409 means the member already holds this app (a previous
				// ambiguous attempt landed): adopt it as the home.
				b.record(req.ID, body, demand, id, ambiguous, req.Priority)
				b.Stats.AddRouted()
				return id, nil
			case code == http.StatusTooManyRequests, code == http.StatusServiceUnavailable:
				b.Stats.AddSpillover()
				continue
			default:
				// 400 and kin: no member will accept this payload.
				b.Stats.AddRouteFailure()
				return "", fmt.Errorf("federation: member %s rejected %s permanently (status %d)", id, req.ID, code)
			}
		}
	}
	b.Stats.AddRouteFailure()
	if len(ambiguous) > 0 {
		// Some attempt timed out after the member may have accepted it.
		// The caller gets an error, but a landed copy would hold real
		// resources: record the app homeless so reconcileAmbiguous can
		// adopt a live copy or delete it — an orphan must not outlive the
		// failed routing.
		b.record(req.ID, body, demand, "", ambiguous, req.Priority)
		b.logf("federation: routing %s failed with %d ambiguous attempts; awaiting reconciliation", req.ID, len(ambiguous))
	}
	return "", fmt.Errorf("federation: no member accepted %s within %d rounds", req.ID, b.cfg.maxRounds())
}

// trySubmit posts the submission to one member under the attempt
// timeout.
func (b *Balancer) trySubmit(memberID string, body []byte) (int, error) {
	m := b.scout.Member(memberID)
	if m == nil {
		return 0, fmt.Errorf("unknown member %s", memberID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), b.cfg.attemptTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+memberID+"/v1/lras", bytes.NewReader(body))
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

// record notes an app's home in the ledger (and any ambiguous members
// other than the home itself).
func (b *Balancer) record(id string, body []byte, demand resource.Vector, home string, ambiguous map[string]bool, priority int) {
	delete(ambiguous, home)
	b.mu.Lock()
	defer b.mu.Unlock()
	a := b.routed[id]
	if a == nil {
		a = &routedApp{id: id, body: body, demand: demand, ambiguous: make(map[string]bool), priority: priority}
		b.routed[id] = a
	}
	a.home = home
	a.degraded = false
	for m := range ambiguous {
		a.ambiguous[m] = true
	}
}

// Step runs one federation control round at now: probe every member,
// fail over apps homed on dead members, re-route apps whose home lost
// them, retry the degraded queue, and reconcile timed-out attempts. It
// is the single-threaded heart of the balancer; submissions may race it.
func (b *Balancer) Step(now time.Time) {
	// debits tracks capacity this round has already promised away per
	// member: the scout's reports only refresh once per round, so placing
	// two refugees against the same stale report would overcommit the
	// survivor and get the second one rejected by its core.
	debits := make(map[string]resource.Vector)
	newly := make(map[string]bool)
	for _, dead := range b.scout.ProbeAll(now) {
		newly[dead] = true
	}
	// Failover is level-triggered: every round sweeps ALL apps homed on a
	// currently-dead member, not only those present at the instant death
	// was confirmed. An app that lands back on a dead home between rounds
	// (a racing submit, an interrupted earlier sweep) is still rescued.
	// Stats count one failover event per death confirmation, so repeat
	// sweeps that find nothing stay invisible.
	for _, id := range b.scout.MemberIDs() {
		if b.scout.State(id, now) == Dead {
			b.failover(id, now, debits, newly[id])
		}
	}
	b.stepDrains(now, debits)
	b.stepMigrations(now, debits)
	b.stepRebalance(now, debits)
	b.reconcileHomes(now, debits)
	b.retryDegraded(now, debits)
	b.reconcileAmbiguous(now)
}

// failover re-places every app homed on the dead member onto survivors.
// Apps the survivors cannot absorb enter degraded mode: parked in the
// ledger, surfaced in stats, retried every Step until capacity appears.
// The dead member's journaled state is not forgotten — every refugee
// keeps an ambiguous mark on the dead member, so if a restarted
// incarnation recovers the app from its journal, reconciliation deletes
// the duplicate instead of letting it run twice.
func (b *Balancer) failover(deadID string, now time.Time, debits map[string]resource.Vector, confirmed bool) {
	b.mu.Lock()
	var refugees []*routedApp
	for _, a := range b.routed {
		if a.home == deadID && !a.degraded {
			refugees = append(refugees, a)
		}
	}
	b.mu.Unlock()
	sort.Slice(refugees, func(i, j int) bool { return refugees[i].id < refugees[j].id })
	if confirmed {
		b.Stats.AddFailoverEvent()
		b.logf("federation: member %s confirmed dead; failing over %d apps", deadID, len(refugees))
	}
	for _, a := range refugees {
		b.mu.Lock()
		a.ambiguous[deadID] = true
		migrating := a.mig != nil
		b.mu.Unlock()
		if migrating {
			// A refugee mid-migration may already have a live copy on its
			// destination: adopt it instead of placing a third copy.
			if b.failoverViaMigration(a, now) {
				b.Stats.AddFailoverReplaced()
				continue
			}
			// The migration aborted; fall through to ordinary placement.
		}
		if home, ok := b.placeOnce(a, now, debits); ok {
			b.Stats.AddFailoverReplaced()
			b.logf("federation: %s re-homed %s -> %s", a.id, deadID, home)
			continue
		}
		b.mu.Lock()
		if !a.degraded {
			a.degraded = true
			a.home = ""
			b.degradedOrder = append(b.degradedOrder, a.id)
		}
		b.mu.Unlock()
		b.Stats.AddDegradedQueued()
		b.logf("federation: %s degraded: no surviving capacity", a.id)
	}
}

// homeCheckBatch bounds how many homed apps one reconcileHomes round
// verifies: anti-entropy is a background repair, not a per-round audit
// of the whole ledger.
const homeCheckBatch = 32

// reconcileHomes is the balancer's anti-entropy sweep: each round it
// verifies a bounded, rotating batch of homed apps against their home
// member. A home that answers 404 — or reports the ack was not honored
// (shed/expired/failed) or already executed a removal the balancer never
// saw acknowledged ("removed", the ack-dropped DELETE) — lost the app:
// typically a member crash before the queued submission became durable,
// recovered from a journal that never saw it. The balancer still holds
// the body, so the app goes back through the degraded path and is
// re-placed instead of being reported lost forever. Entries whose status
// query failed transiently go into a bounded recheck set that is retried
// every round ahead of the rotating window — otherwise an unlucky entry
// would wait a full ledger rotation between attempts while its app
// stays unaccounted for.
func (b *Balancer) reconcileHomes(now time.Time, debits map[string]resource.Vector) {
	b.mu.Lock()
	var homed []string
	for id, a := range b.routed {
		// Migrating apps are skipped: mid-DELETE their home legitimately
		// answers "removed", and the migration machinery owns their fate.
		if a.home != "" && !a.degraded && !a.removed && a.mig == nil {
			homed = append(homed, id)
		}
	}
	b.mu.Unlock()
	if len(homed) == 0 {
		return
	}
	sort.Strings(homed)
	var batch []string
	seen := make(map[string]bool)
	if len(b.recheck) > 0 {
		retry := make([]string, 0, len(b.recheck))
		for id := range b.recheck {
			retry = append(retry, id)
		}
		sort.Strings(retry)
		for _, id := range retry {
			batch = append(batch, id)
			seen[id] = true
		}
	}
	lo := b.homeCursor % len(homed)
	for i := 0; i < homeCheckBatch && i < len(homed); i++ {
		id := homed[(lo+i)%len(homed)]
		if !seen[id] {
			batch = append(batch, id)
		}
	}
	b.homeCursor = (lo + homeCheckBatch) % len(homed)
	for _, id := range batch {
		b.mu.Lock()
		a := b.routed[id]
		var home string
		if a != nil && !a.degraded && !a.removed && a.mig == nil {
			home = a.home
		}
		b.mu.Unlock()
		if home == "" || b.scout.State(home, now) == Dead {
			delete(b.recheck, id) // failover's job, not anti-entropy's
			continue
		}
		code, sr, err := b.getStatus(home, id)
		if err != nil {
			if b.recheck == nil {
				b.recheck = make(map[string]bool)
			}
			if len(b.recheck) < homeCheckBatch || b.recheck[id] {
				b.recheck[id] = true
			}
			continue // unreachable: retried next round
		}
		delete(b.recheck, id)
		vanished := code == http.StatusNotFound ||
			(code == http.StatusOK && (sr.State == "shed" || sr.State == "expired" || sr.State == "failed" || sr.State == "removed"))
		if !vanished {
			continue
		}
		b.mu.Lock()
		if a.home == home && !a.degraded && !a.removed && a.mig == nil {
			a.home = ""
			a.degraded = true
			b.degradedOrder = append(b.degradedOrder, a.id)
		}
		b.mu.Unlock()
		b.Stats.AddRerouted()
		b.logf("federation: %s vanished from %s (state %q); re-queued for placement", id, home, sr.State)
	}
}

// placeOnce tries ranked members once for an app being re-placed (no
// backoff rounds: the caller's control loop is the retry). Unlike the
// client submit path it only offers the app to members whose reported
// free capacity fits — a refugee handed to a full survivor would be
// acknowledged and then sit unplaceable until the core rejects it,
// which is worse than honest degraded mode at the balancer.
func (b *Balancer) placeOnce(a *routedApp, now time.Time, debits map[string]resource.Vector) (string, bool) {
	for _, id := range b.scout.Rank(a.demand, now) {
		rep, ok := b.scout.LastReport(id)
		if !ok || !a.demand.Fits(rep.Free.Sub(debits[id])) {
			continue
		}
		code, err := b.trySubmit(id, a.body)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				b.mu.Lock()
				a.ambiguous[id] = true
				b.mu.Unlock()
			}
			continue
		}
		if code == http.StatusAccepted || code == http.StatusConflict {
			b.mu.Lock()
			a.home = id
			a.degraded = false
			delete(a.ambiguous, id)
			b.mu.Unlock()
			debits[id] = debits[id].Add(a.demand)
			return id, true
		}
		if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
			b.Stats.AddSpillover()
		}
	}
	return "", false
}

// retryDegraded gives each degraded app one placement pass, in FIFO
// order; successes leave the queue.
func (b *Balancer) retryDegraded(now time.Time, debits map[string]resource.Vector) {
	b.mu.Lock()
	order := append([]string(nil), b.degradedOrder...)
	b.mu.Unlock()
	var still []string
	for _, id := range order {
		b.mu.Lock()
		a := b.routed[id]
		degraded := a != nil && a.degraded
		b.mu.Unlock()
		if !degraded {
			continue
		}
		if home, ok := b.placeOnce(a, now, debits); ok {
			b.Stats.AddDegradedRecovered()
			b.logf("federation: %s recovered from degraded mode -> %s", id, home)
			continue
		}
		still = append(still, id)
	}
	b.mu.Lock()
	b.degradedOrder = still
	b.mu.Unlock()
}

// reconcileAmbiguous resolves timed-out attempts: if a member that timed
// out during routing turns out to hold a live copy of the app while it
// is homed elsewhere, the duplicate is deleted; if the app ended up with
// no home (routing gave up after the timeout), a live landed copy is
// adopted — unless the entry is a removal tombstone, whose landed copies
// are deleted instead. Copies in a terminal state (rejected, removed,
// shed, expired, failed) hold no resources — their marks are dropped
// rather than retrying an un-deletable duplicate forever. Marks on a
// DEAD member are kept, not dropped: the member's journal may hold the
// copy, and a restarted incarnation would recover it — the mark is the
// only thing standing between that recovery and a permanent duplicate.
// An entry whose marks all resolve with no home found leaves the ledger:
// nothing landed, and the submitter was already told the routing failed.
func (b *Balancer) reconcileAmbiguous(now time.Time) {
	b.mu.Lock()
	var pending []*routedApp
	for _, a := range b.routed {
		if len(a.ambiguous) > 0 {
			pending = append(pending, a)
		}
	}
	b.mu.Unlock()
	sort.Slice(pending, func(i, j int) bool { return pending[i].id < pending[j].id })
	for _, a := range pending {
		b.mu.Lock()
		members := make([]string, 0, len(a.ambiguous))
		for id := range a.ambiguous {
			members = append(members, id)
		}
		home, removed := a.home, a.removed
		var migDest string
		if a.mig != nil {
			migDest = a.mig.dest
		}
		b.mu.Unlock()
		sort.Strings(members)
		for _, id := range members {
			if id == migDest {
				// A live copy on a migration's destination is the move in
				// progress, not a duplicate; the protocol resolves it.
				continue
			}
			if b.scout.State(id, now) == Dead {
				// Unreachable AND possibly recoverable from its journal:
				// keep the mark until the member answers again (restart)
				// or the run ends with it still down.
				continue
			}
			code, sr, err := b.getStatus(id, a.id)
			if err != nil {
				continue // unreachable: try again next Step
			}
			live := sr.State == "queued" || sr.State == "pending" || sr.State == "deployed"
			switch {
			case code == http.StatusNotFound:
				b.mu.Lock()
				delete(a.ambiguous, id)
				b.mu.Unlock()
			case code != http.StatusOK:
				continue // transient member-side answer: try again next Step
			case !live:
				// Terminal on the member (rejected/removed/shed/expired/
				// failed): no resources held, nothing to delete.
				b.mu.Lock()
				delete(a.ambiguous, id)
				b.mu.Unlock()
			case home == "" && !removed:
				b.mu.Lock()
				a.home = id
				a.degraded = false
				delete(a.ambiguous, id)
				b.mu.Unlock()
				home = id
				b.Stats.AddReconciled()
				b.logf("federation: adopted landed copy of %s on %s", a.id, id)
			default:
				// A live copy beside the home — or any live copy of a
				// removed app: delete it.
				if rmErr := b.remove(id, a.id); rmErr == nil {
					b.mu.Lock()
					delete(a.ambiguous, id)
					b.mu.Unlock()
					b.Stats.AddReconciled()
					b.logf("federation: removed duplicate %s from %s (home %s)", a.id, id, home)
				}
			}
		}
		b.mu.Lock()
		if a.home == "" && !a.degraded && a.mig == nil && len(a.ambiguous) == 0 {
			// Every ambiguous attempt resolved: a tombstone has nothing
			// left to delete, a failed routing left nothing behind — in
			// both cases the entry is done.
			delete(b.routed, a.id)
		}
		b.mu.Unlock()
	}
}

// getStatus fetches an app's status from one member.
func (b *Balancer) getStatus(memberID, appID string) (int, server.StatusResponse, error) {
	m := b.scout.Member(memberID)
	if m == nil {
		return 0, server.StatusResponse{}, fmt.Errorf("unknown member %s", memberID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), b.cfg.attemptTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+memberID+"/v1/lras/"+appID, nil)
	if err != nil {
		return 0, server.StatusResponse{}, err
	}
	resp, err := m.Client().Do(req)
	if err != nil {
		return 0, server.StatusResponse{}, err
	}
	defer resp.Body.Close()
	var sr server.StatusResponse
	_ = json.NewDecoder(resp.Body).Decode(&sr)
	return resp.StatusCode, sr, nil
}

// remove deletes an app from one member, treating any non-200 answer as
// an error.
func (b *Balancer) remove(memberID, appID string) error {
	code, err := b.removeCode(memberID, appID)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("remove %s from %s: status %d", appID, memberID, code)
	}
	return nil
}

// removeCode deletes an app from one member and returns the status code
// — the migration DELETE phase needs to tell 404 (an earlier crashed
// DELETE already went through: success) from a refusal.
func (b *Balancer) removeCode(memberID, appID string) (int, error) {
	return b.bareRequest(memberID, http.MethodDelete, "/v1/lras/"+appID)
}

// Home returns the member currently homing the app ("" when degraded or
// unknown) and whether the app is in the ledger.
func (b *Balancer) Home(appID string) (string, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	a := b.routed[appID]
	if a == nil {
		return "", false
	}
	return a.home, true
}

// Status proxies a status query to the app's home member. Degraded apps
// report state "degraded" locally.
func (b *Balancer) Status(appID string) (server.StatusResponse, error) {
	b.mu.Lock()
	a := b.routed[appID]
	b.mu.Unlock()
	if a == nil {
		return server.StatusResponse{}, fmt.Errorf("federation: unknown app %s", appID)
	}
	if a.removed {
		return server.StatusResponse{ID: appID, State: "removed"}, nil
	}
	if a.degraded {
		return server.StatusResponse{ID: appID, State: "degraded"}, nil
	}
	code, sr, err := b.getStatus(a.home, appID)
	if err != nil {
		return server.StatusResponse{}, err
	}
	if code != http.StatusOK {
		return server.StatusResponse{}, fmt.Errorf("federation: %s status on %s: %d", appID, a.home, code)
	}
	return sr, nil
}

// Remove tears an app down fleet-wide: from its home member and from the
// ledger (degraded apps just leave the queue). An app with outstanding
// ambiguous marks does not leave the ledger yet — a timed-out attempt
// may still have landed a copy somewhere, and deleting the entry would
// orphan it. The entry becomes a removal tombstone: reconciliation
// deletes any copy the marks turn up, then garbage-collects the entry.
func (b *Balancer) Remove(appID string) error {
	b.mu.Lock()
	a := b.routed[appID]
	b.mu.Unlock()
	if a == nil {
		return fmt.Errorf("federation: unknown app %s", appID)
	}
	// An in-flight migration dies with the removal: the abort marks a
	// possibly-landed destination copy ambiguous, and the tombstone path
	// below guarantees it gets deleted.
	b.abortMigration(a, "app removed")
	if !a.degraded && a.home != "" {
		if err := b.remove(a.home, appID); err != nil {
			return err
		}
	}
	b.mu.Lock()
	if len(a.ambiguous) > 0 {
		a.removed = true
		a.home = ""
		a.degraded = false
	} else {
		delete(b.routed, appID)
	}
	b.mu.Unlock()
	return nil
}

// Forget drops an app's ledger entry without touching any member — a
// deliberate bookkeeping hole. It exists ONLY as the deterministic
// simulation harness's injected-violation hook: the member still runs
// the app, the ledger no longer accounts for it, and the harness's
// cross-layer invariant checker must catch the discrepancy. Never call
// this in production paths; Remove is the real teardown.
func (b *Balancer) Forget(appID string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.routed[appID] == nil {
		return false
	}
	delete(b.routed, appID)
	return true
}

// AmbiguousMarks returns the member IDs an app still has unresolved
// timed-out attempts against (sorted; nil when none or unknown). The
// deterministic simulation harness uses it to tell a tracked duplicate
// from an untracked one.
func (b *Balancer) AmbiguousMarks(appID string) []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	a := b.routed[appID]
	if a == nil || len(a.ambiguous) == 0 {
		return nil
	}
	ids := make([]string, 0, len(a.ambiguous))
	for id := range a.ambiguous {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// AuditReport is the fleet-wide accounting of every acknowledged
// submission. The zero-loss invariant the chaos gates check: Lost stays
// empty — every routed app is either placed on a live member, parked in
// the degraded queue, explicitly rejected by a scheduler, or transiently
// homed on a member awaiting failover/unreachable (OnDead). Reconciling
// counts un-acked entries from failed routings whose timed-out attempts
// may have landed; they are adopted or deleted by reconciliation and are
// not loss — the submitter was told the routing failed.
type AuditReport struct {
	Routed      int
	Placed      int
	Degraded    int
	OnDead      int
	Rejected    int
	Reconciling int
	Lost        []string
}

// Audit verifies the ledger against the members at now.
func (b *Balancer) Audit(now time.Time) AuditReport {
	b.mu.Lock()
	apps := make([]*routedApp, 0, len(b.routed))
	for _, a := range b.routed {
		apps = append(apps, a)
	}
	b.mu.Unlock()
	sort.Slice(apps, func(i, j int) bool { return apps[i].id < apps[j].id })
	rep := AuditReport{Routed: len(apps)}
	for _, a := range apps {
		b.mu.Lock()
		home, degraded, ambiguous, removed := a.home, a.degraded, len(a.ambiguous), a.removed
		var migDest string
		migTried := false
		if a.mig != nil {
			migDest = a.mig.dest
			migTried = a.mig.tried
		}
		b.mu.Unlock()
		// liveAt answers whether a member currently holds a live copy, and
		// whether it could be asked at all.
		liveAt := func(member string) (live, reachable bool) {
			if b.scout.State(member, now) == Dead {
				return false, false
			}
			code, sr, err := b.getStatus(member, a.id)
			if err != nil {
				return false, false
			}
			if code != http.StatusOK {
				return false, true
			}
			return sr.State == "queued" || sr.State == "deployed" || sr.State == "pending", true
		}
		switch {
		case removed:
			// A removal tombstone: the submitter asked for teardown; the
			// entry only persists until its ambiguous marks drain.
			rep.Reconciling++
		case migDest != "":
			// Mid-migration the app is legitimately live on its source, its
			// destination, or both during the handoff; a crash anywhere in
			// between resolves through the protocol's resume paths. It is
			// never Lost: the balancer holds the body and both endpoints.
			srcLive, srcReach := liveAt(home)
			destLive, destReach := false, true
			if !srcLive && migTried {
				destLive, destReach = liveAt(migDest)
			}
			switch {
			case srcLive || destLive:
				rep.Placed++
			case !srcReach || !destReach:
				rep.OnDead++
			default:
				rep.Reconciling++
			}
		case degraded:
			rep.Degraded++
		case home == "" && ambiguous > 0:
			rep.Reconciling++
		case home == "":
			rep.Lost = append(rep.Lost, a.id)
		case b.scout.State(home, now) == Dead:
			rep.OnDead++
		default:
			code, sr, err := b.getStatus(home, a.id)
			switch {
			case err != nil:
				rep.OnDead++ // unreachable home: failover pending
			case code != http.StatusOK:
				rep.Lost = append(rep.Lost, a.id)
			case sr.State == "queued" || sr.State == "deployed" || sr.State == "pending":
				rep.Placed++
			case sr.State == "rejected":
				rep.Rejected++
			default:
				// shed/expired/failed: the ack was not honored.
				rep.Lost = append(rep.Lost, a.id)
			}
		}
	}
	return rep
}
