package federation

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/url"
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

// Balancer routes LRA submissions across the federation's members using
// the scout's health and capacity knowledge, and owns the cross-cluster
// lifecycle afterwards: spillover when a member sheds load, failover
// when the detector confirms a member dead, a degraded queue when the
// survivors cannot absorb the refugees, and reconciliation of timed-out
// attempts that may have landed. What it knows about an app is one
// ledger entry (ledger.go); everything here reads entries by value and
// changes them through apply.
type Balancer struct {
	cfg   RouteConfig
	scout *Scout
	Stats *metrics.FedStats

	mu     sync.Mutex
	routed map[string]*routedApp
	// degradedSeq numbers entries as they turn degraded (FIFO recovery).
	degradedSeq uint64
	// drains tracks in-flight member evacuations by member ID.
	drains map[string]*drainState
	// migDurations records completed migrations' start-to-finish latency.
	migDurations []time.Duration
	// migHook is the deterministic-simulation crash-point hook (see
	// SetMigrationHook).
	migHook func(MigPoint, string) bool

	// The control loop's own state, touched only by Step.
	//
	// homeCursor rotates the anti-entropy sweep through the placed apps so
	// every entry is verified within len(ledger)/homeCheckBatch rounds.
	homeCursor int
	// recheck holds apps whose last home verification failed transiently;
	// they are retried every round ahead of the rotating window instead of
	// waiting out a full ledger rotation. Bounded to homeCheckBatch.
	recheck map[string]bool

	logf func(format string, args ...any)
}

// NewBalancer builds a balancer over the scout's members.
func NewBalancer(cfg RouteConfig, scout *Scout, stats *metrics.FedStats, logf func(string, ...any)) *Balancer {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if cfg.Sleep == nil {
		cfg.Sleep = time.Sleep
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Balancer{cfg: cfg, scout: scout, Stats: stats, routed: make(map[string]*routedApp), recheck: make(map[string]bool), logf: logf}
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
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d", appID, round)
	return d + time.Duration(h.Sum64()%uint64(d/2))
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

// call sends one request to a member under the attempt timeout (see
// Member.request, the one place a member request is built and sent). An
// answer, whatever its status, is piggybacked liveness for the scout.
func (b *Balancer) call(memberID, method, path string, body []byte, out any) (int, error) {
	code, err := b.observe(memberID, method, path, body, out)
	if err == nil {
		b.scout.answered(memberID)
	}
	return code, err
}

// observe is call without the liveness side effect, for Audit: an
// observer must not change what it observes.
func (b *Balancer) observe(memberID, method, path string, body []byte, out any) (int, error) {
	m := b.scout.Member(memberID)
	if m == nil {
		return 0, fmt.Errorf("unknown member %s", memberID)
	}
	return m.request(b.cfg.attemptTimeout(), method, path, body, out)
}

// Submit routes one submission: members are tried in the scout's rank
// order; a 202 homes the app, overload answers (429/503) spill over to
// the next member, timeouts are remembered as possible duplicates, and
// exhausted rounds are retried after a jittered exponential backoff.
// It returns the member that accepted the app.
func (b *Balancer) Submit(req *server.SubmitRequest) (home string, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return "", fmt.Errorf("federation: encoding submission %s: %w", req.ID, err)
	}
	demand := totalDemand(req)
	// The ledger is the router's single source of truth for an ID, and the
	// entry is recorded before the first wire operation: a resubmission of
	// an app it already tracks — even one still being routed by another
	// caller — must not route again. Another member would 202 it and the
	// fleet would run two live copies, with no ambiguous mark to ever
	// reconcile the first.
	entry := &routedApp{id: req.ID, body: body, demand: demand, priority: req.Priority}
	if was, ok := b.apply(req.ID, evSubmit, evArg{entry: entry}); !ok {
		switch {
		case was.state == tombstoned:
			return "", fmt.Errorf("federation: %s is still being removed", req.ID)
		case was.home != "":
			return was.home, nil // idempotent: already routed there
		}
		return "", fmt.Errorf("federation: %s already submitted (degraded or reconciling)", req.ID)
	}
	// ambiguous gathers the members whose attempt timed out after the
	// request may have been accepted. It stays out of the ledger until the
	// routing ends, so reconciliation never acts on an entry whose
	// routing is still in flight.
	var ambiguous []string
	routed := false
	defer func() {
		// Routing ended without a home — or was cut short by a panic
		// unwinding through it (the simulation's member crash). A landed
		// copy would hold real resources: the entry stays, homeless, for
		// reconciliation to adopt a live copy or delete it. With no
		// timed-out attempt nothing can have landed and the entry goes.
		if !routed {
			b.apply(req.ID, evRouteFailed, evArg{marks: ambiguous})
		}
	}()
	for round := 0; round < b.cfg.maxRounds(); round++ {
		if round > 0 {
			b.Stats.Add(metrics.RouteRetries, 1)
			b.cfg.Sleep(b.routeBackoff(req.ID, round))
		}
		for _, id := range b.scout.Rank(demand, b.cfg.Clock()) {
			code, routeErr := b.call(id, http.MethodPost, "/v1/lras", body, nil)
			switch {
			case routeErr != nil:
				if errors.Is(routeErr, context.DeadlineExceeded) {
					ambiguous = withMark(ambiguous, id)
				}
			case code == http.StatusAccepted, code == http.StatusConflict:
				// 409 means the member already holds this app (a previous
				// ambiguous attempt landed): adopt it as the home.
				_, routed = b.apply(req.ID, evPlace, evArg{member: id, marks: ambiguous})
				return id, nil
			case code == http.StatusTooManyRequests, code == http.StatusServiceUnavailable:
				b.Stats.Add(metrics.Spillovers, 1)
			default:
				// 400 and kin: no member will accept this payload.
				return "", fmt.Errorf("federation: member %s rejected %s permanently (status %d)", id, req.ID, code)
			}
		}
	}
	return "", fmt.Errorf("federation: no member accepted %s within %d rounds", req.ID, b.cfg.maxRounds())
}

// Step runs one federation control round at now: probe every member,
// fail over apps homed on dead members, advance drains and moves,
// re-route apps whose home lost them, retry the degraded queue, and
// reconcile timed-out attempts. It is the single-threaded heart of the
// balancer; submissions and removals may race it. The phase order is
// semantics: debits makes a later phase see what an earlier one
// promised away.
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
	snap := b.snapshot()
	// Failover is level-triggered: every round sweeps ALL apps homed on a
	// currently-dead member, not only those present at the instant death
	// was confirmed. An app that lands back on a dead home between rounds
	// (a racing submit, an interrupted earlier sweep) is still rescued.
	// Stats count one failover event per death confirmation, so repeat
	// sweeps that find nothing stay invisible.
	for _, id := range b.scout.MemberIDs() {
		if b.scout.State(id, now) == Dead {
			b.failover(snap, id, now, debits, newly[id])
		}
	}
	b.stepDrains(snap, now, debits)
	b.stepMoves(snap, now, debits)
	b.reconcileHomes(snap, now, debits)
	b.retryDegraded(snap, now, debits)
	b.reconcileMarks(snap, now)
}

// failover re-places every app homed on the dead member onto survivors.
// Apps the survivors cannot absorb enter degraded mode: parked in the
// ledger, surfaced in stats, retried every Step until capacity appears.
// The dead member's journaled state is not forgotten — every refugee
// keeps an ambiguous mark on the dead member, so if a restarted
// incarnation recovers the app from its journal, reconciliation deletes
// the duplicate instead of letting it run twice.
func (b *Balancer) failover(snap []string, deadID string, now time.Time, debits map[string]resource.Vector, confirmed bool) {
	var refugees []string
	for _, id := range snap {
		if b.view(id).home == deadID {
			refugees = append(refugees, id)
		}
	}
	if confirmed {
		b.Stats.Add(metrics.FailoverEvents, 1)
		b.logf("federation: member %s confirmed dead; failing over %d apps", deadID, len(refugees))
	}
	for _, id := range refugees {
		v, ok := b.apply(id, evMark, evArg{member: deadID})
		if !ok {
			continue
		}
		// A refugee mid-move may already have a live copy on its
		// destination: adopt it instead of placing a third copy. If not,
		// the move is rolled back and ordinary placement follows.
		if v.state.moving() && b.failoverViaMove(v, now) {
			b.Stats.Add(metrics.FailoverReplaced, 1)
			continue
		}
		if !b.placeOnce(v, now, debits) {
			b.apply(id, evStrand, evArg{})
		}
	}
}

// homeCheckBatch bounds how many placed apps one reconcileHomes round
// verifies: anti-entropy is a background repair, not a per-round audit
// of the whole ledger.
const homeCheckBatch = 32

// reconcileHomes is the balancer's anti-entropy sweep: each round it
// verifies a bounded, rotating batch of placed apps against their home
// members, with one batched state read (GET /v1/lras?id=…) per home. A
// home that does not know the app ("", where the single read answers
// 404) — or reports the ack was not honored (shed/expired/failed) or
// already executed a removal the balancer never saw acknowledged
// ("removed", the ack-dropped DELETE) — lost the app: typically a member
// crash before the queued submission became durable, recovered from a
// journal that never saw it. The balancer still holds the body, so the
// app goes back through the degraded path and is re-placed instead of
// being reported lost forever. Entries whose home could not be read go
// into a bounded recheck set that is retried every round ahead of the
// rotating window — otherwise an unlucky entry would wait a full ledger
// rotation between attempts while its app stays unaccounted for. Moving
// apps are not swept: mid-DELETE their home legitimately answers
// "removed", and the move protocol owns their fate.
func (b *Balancer) reconcileHomes(snap []string, now time.Time, debits map[string]resource.Vector) {
	var homed []string
	for _, id := range snap {
		if b.view(id).state == placed {
			homed = append(homed, id)
		}
	}
	if len(homed) == 0 {
		return
	}
	batch := make([]string, 0, len(b.recheck)+homeCheckBatch)
	for id := range b.recheck {
		batch = append(batch, id)
	}
	sort.Strings(batch)
	lo := b.homeCursor % len(homed)
	for i := 0; i < homeCheckBatch && i < len(homed); i++ {
		if id := homed[(lo+i)%len(homed)]; !b.recheck[id] {
			batch = append(batch, id)
		}
	}
	b.homeCursor = (lo + homeCheckBatch) % len(homed)
	// read[i] is what batch[i]'s home answered. An empty home means it was
	// not asked; answered false, that its home could not be read.
	type verdict struct {
		home, state string
		answered    bool
	}
	read := make([]verdict, len(batch))
	groups := make(map[string][]int) // batch positions per home, in batch order
	var homes []string
	for i, id := range batch {
		v := b.view(id)
		if v.state != placed || b.scout.State(v.home, now) == Dead {
			continue
		}
		read[i].home = v.home
		if groups[v.home] == nil {
			homes = append(homes, v.home)
		}
		groups[v.home] = append(groups[v.home], i)
	}
	for _, home := range homes {
		at := groups[home]
		q := make(url.Values)
		for _, i := range at {
			q.Add("id", batch[i])
		}
		var sr server.StatesResponse
		code, err := b.call(home, http.MethodGet, "/v1/lras?"+q.Encode(), nil, &sr)
		// Anything short of one state per ID leaves the whole group
		// unread. A member from before the batched read answers 405, and
		// taking that for "unknown" would re-place every app it homes.
		if err != nil || code != http.StatusOK || len(sr.States) != len(at) {
			continue
		}
		for j, i := range at {
			read[i].state, read[i].answered = sr.States[j], true
		}
	}
	for i, id := range batch {
		switch r := read[i]; {
		case r.home == "":
			delete(b.recheck, id) // failover's job, not anti-entropy's
		case !r.answered:
			if len(b.recheck) < homeCheckBatch || b.recheck[id] {
				b.recheck[id] = true // unreachable: retried next round
			}
		default:
			delete(b.recheck, id)
			// A rejection is the member scheduler's verdict on the app, not a
			// loss: it is reported (Audit's Rejected), not re-placed.
			if r.state == "" || (terminal(r.state) && r.state != "rejected") {
				b.apply(id, evVanish, evArg{member: r.home, note: r.state})
			}
		}
	}
}

// placeOnce tries ranked members once for an app being re-placed (no
// backoff rounds: the caller's control loop is the retry). Unlike the
// client submit path it only offers the app to members whose reported
// free capacity fits — a refugee handed to a full survivor would be
// acknowledged and then sit unplaceable until the core rejects it,
// which is worse than honest degraded mode at the balancer.
func (b *Balancer) placeOnce(v routedApp, now time.Time, debits map[string]resource.Vector) bool {
	for _, id := range b.scout.Rank(v.demand, now) {
		rep, ok := b.scout.LastReport(id)
		if !ok || !v.demand.Fits(rep.Free.Sub(debits[id])) {
			continue
		}
		code, err := b.call(id, http.MethodPost, "/v1/lras", v.body, nil)
		switch {
		case err != nil:
			if errors.Is(err, context.DeadlineExceeded) {
				b.apply(v.id, evMark, evArg{member: id})
			}
		case code == http.StatusAccepted, code == http.StatusConflict:
			b.apply(v.id, evPlace, evArg{member: id})
			debits[id] = debits[id].Add(v.demand)
			return true
		case code == http.StatusTooManyRequests, code == http.StatusServiceUnavailable:
			b.Stats.Add(metrics.Spillovers, 1)
		}
	}
	return false
}

// retryDegraded gives each degraded app one placement pass, in the order
// they turned degraded; successes leave the queue.
func (b *Balancer) retryDegraded(snap []string, now time.Time, debits map[string]resource.Vector) {
	var queue []routedApp
	for _, id := range snap {
		if v := b.view(id); v.state == degraded {
			queue = append(queue, v)
		}
	}
	sort.Slice(queue, func(i, j int) bool { return queue[i].seq < queue[j].seq })
	for _, v := range queue {
		b.placeOnce(v, now, debits)
	}
}

// reconcileMarks resolves ambiguous marks: if a marked member turns out
// to hold a live copy of the app while it is homed elsewhere, the
// duplicate is deleted; if the app has no home (routing gave up after
// the timeout, or it is degraded), a live landed copy is adopted —
// unless the entry is a removal tombstone, whose landed copies are
// deleted instead. Copies in a terminal state (rejected, removed, shed,
// expired, failed) hold no resources — their marks are dropped rather
// than retrying an un-deletable duplicate forever. Marks on a DEAD
// member are kept, not dropped: the member's journal may hold the copy,
// and a restarted incarnation would recover it — the mark is the only
// thing standing between that recovery and a permanent duplicate. A
// placing or tombstoned entry whose last mark resolves leaves the
// ledger: nothing landed that is not dealt with, and the submitter
// already has its answer.
func (b *Balancer) reconcileMarks(snap []string, now time.Time) {
	for _, id := range snap {
		v := b.view(id)
		adoptable := v.state == placing || v.state == degraded
		for _, member := range v.marks {
			if v.state.moving() && member == v.move.dest {
				// A live copy on a move's destination is the move in
				// progress, not a duplicate; the protocol resolves it.
				continue
			}
			if b.scout.State(member, now) == Dead {
				// Unreachable AND possibly recoverable from its journal:
				// keep the mark until the member answers again (restart)
				// or the run ends with it still down.
				continue
			}
			var sr server.StatusResponse
			code, err := b.call(member, http.MethodGet, "/v1/lras/"+id, nil, &sr)
			if err != nil {
				continue // unreachable: try again next Step
			}
			switch {
			case code == http.StatusNotFound:
				b.apply(id, evMarkCleared, evArg{member: member})
			case code != http.StatusOK:
				// transient member-side answer: try again next Step
			case !live(sr.State):
				// Terminal on the member: no resources held, nothing to
				// delete.
				b.apply(id, evMarkCleared, evArg{member: member})
			case adoptable:
				_, adopted := b.apply(id, evAdopt, evArg{member: member})
				adoptable = !adopted
			default:
				// A live copy beside the home — or any live copy of a
				// removed app: delete it.
				if code, err := b.call(member, http.MethodDelete, "/v1/lras/"+id, nil, nil); err == nil && code == http.StatusOK {
					b.apply(id, evDuplicateDeleted, evArg{member: member})
				}
			}
		}
	}
}

// Home returns the member currently homing the app ("" when it has
// none) and whether the app is in the ledger.
func (b *Balancer) Home(appID string) (string, bool) {
	v := b.view(appID)
	return v.home, v.state != gone
}

// Status proxies a status query to the app's home member. An app with no
// home reports its ledger state: "degraded", "placing", or "removed"
// for a tombstone.
func (b *Balancer) Status(appID string) (server.StatusResponse, error) {
	v := b.view(appID)
	switch {
	case v.state == gone:
		return server.StatusResponse{}, fmt.Errorf("federation: unknown app %s", appID)
	case v.state == tombstoned:
		return server.StatusResponse{ID: appID, State: "removed"}, nil
	case v.home == "":
		return server.StatusResponse{ID: appID, State: v.state.String()}, nil
	}
	var sr server.StatusResponse
	code, err := b.call(v.home, http.MethodGet, "/v1/lras/"+appID, nil, &sr)
	if err != nil {
		return server.StatusResponse{}, err
	}
	if code != http.StatusOK {
		return server.StatusResponse{}, fmt.Errorf("federation: %s status on %s: %d", appID, v.home, code)
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
	v := b.view(appID)
	if v.state == gone {
		return fmt.Errorf("federation: unknown app %s", appID)
	}
	if v.state == movingPrepare || v.state == movingCommit {
		// An in-flight move dies with the removal: the abort marks a
		// possibly-landed destination copy ambiguous, and the tombstone
		// below guarantees it gets deleted. A move in its DELETE phase is
		// not rolled back: the tombstone marks both of its endpoints.
		b.abortMove(appID, "app removed")
	}
	if v.home != "" {
		code, err := b.call(v.home, http.MethodDelete, "/v1/lras/"+appID, nil, nil)
		if err != nil {
			return err
		}
		// 404 is success for a teardown: the copy is already gone (a
		// move's DELETE went through, or the member lost the app).
		if code != http.StatusOK && code != http.StatusNotFound {
			return fmt.Errorf("remove %s from %s: status %d", appID, v.home, code)
		}
	}
	if was, ok := b.apply(appID, evRemove, evArg{}); !ok {
		// Still being routed by a Submit, or a drain started moving it
		// while the request above was on the wire.
		return fmt.Errorf("federation: %s is %s; retry the removal", appID, was.state)
	}
	return nil
}

// Forget drops an app's ledger entry without touching any member — a
// deliberate bookkeeping hole. It exists ONLY as the deterministic
// simulation harness's injected-violation hook: the member still runs
// the app, the ledger no longer accounts for it, and the harness's
// cross-layer invariant checker must catch the discrepancy. Never call
// this in production paths; Remove is the real teardown.
func (b *Balancer) Forget(appID string) bool {
	_, ok := b.apply(appID, evForget, evArg{})
	return ok
}

// AmbiguousMarks returns the member IDs an app still has unresolved
// marks against (sorted; nil when none or unknown). The deterministic
// simulation harness uses it to tell a tracked duplicate from an
// untracked one.
func (b *Balancer) AmbiguousMarks(appID string) []string {
	return b.view(appID).marks
}

// AuditReport is the fleet-wide accounting of every acknowledged
// submission. The zero-loss invariant the chaos gates check: Lost stays
// empty — every routed app is either placed on a live member, parked in
// the degraded queue, explicitly rejected by a scheduler, or transiently
// homed on a member awaiting failover/unreachable (OnDead). Reconciling
// counts un-acked entries — a routing still in flight, or a failed one
// whose timed-out attempts may have landed — and removal tombstones;
// they are adopted or deleted by reconciliation and are not loss: the
// submitter was never told the app runs.
type AuditReport struct {
	Routed      int
	Placed      int
	Degraded    int
	OnDead      int
	Rejected    int
	Reconciling int
	Lost        []string
}

// Audit verifies the ledger against the members at now. It is an
// observer: its reads go through observe, so they neither latch a
// verdict nor feed the detector.
func (b *Balancer) Audit(now time.Time) AuditReport {
	snap := b.snapshot()
	rep := AuditReport{Routed: len(snap)}
	// liveAt answers whether a member currently holds a live copy, and
	// whether it could be asked at all.
	liveAt := func(member, appID string) (isLive, reachable bool) {
		if b.scout.State(member, now) == Dead {
			return false, false
		}
		var sr server.StatusResponse
		code, err := b.observe(member, http.MethodGet, "/v1/lras/"+appID, nil, &sr)
		if err != nil {
			return false, false
		}
		return code == http.StatusOK && live(sr.State), true
	}
	for _, id := range snap {
		v := b.view(id)
		switch v.state {
		case gone:
			rep.Routed-- // removed since the snapshot
		case placing, tombstoned:
			rep.Reconciling++
		case degraded:
			rep.Degraded++
		case movingPrepare, movingCommit, movingDelete:
			// Mid-move the app is legitimately live on its source, its
			// destination, or both during the handoff; a crash anywhere in
			// between resolves through the protocol's resume paths. It is
			// never Lost: the balancer holds the body and both endpoints.
			srcLive, srcReach := liveAt(v.home, id)
			destLive, destReach := false, true
			if !srcLive && v.move.tried {
				destLive, destReach = liveAt(v.move.dest, id)
			}
			switch {
			case srcLive || destLive:
				rep.Placed++
			case !srcReach || !destReach:
				rep.OnDead++
			default:
				rep.Reconciling++
			}
		case placed:
			if b.scout.State(v.home, now) == Dead {
				rep.OnDead++
				break
			}
			var sr server.StatusResponse
			code, err := b.observe(v.home, http.MethodGet, "/v1/lras/"+id, nil, &sr)
			switch {
			case err != nil:
				rep.OnDead++ // unreachable home: failover pending
			case code != http.StatusOK:
				rep.Lost = append(rep.Lost, id)
			case live(sr.State):
				rep.Placed++
			case sr.State == "rejected":
				rep.Rejected++
			default:
				// shed/expired/failed: the ack was not honored.
				rep.Lost = append(rep.Lost, id)
			}
		}
	}
	return rep
}
