// Package server turns the Medea library into a serving system: an
// HTTP/JSON (stdlib-only) scheduler-as-a-service over core.Medea,
// wrapped in an overload-control layer. The accept path is guarded by
// three independent protections, checked in order of cost:
//
//  1. per-tenant token-bucket rate limiting with a fair-share global
//     budget — one tenant cannot starve the others (429 + Retry-After);
//  2. watermark admission control with hysteresis over the submission
//     backlog, in-flight batches and the journal replay tail — the
//     server rejects fast instead of letting latency collapse (429 +
//     Retry-After);
//  3. a bounded submit queue between the accept path and the scheduling
//     loop that sheds the lowest-priority work first when full (503).
//
// Request deadlines propagate from the submit payload through the queue
// into the scheduling cycle's solver budget, and graceful drain stops
// admission, flushes or journals the in-flight work, checkpoints and
// returns — so a SIGTERM under load loses nothing that was committed.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"medea/internal/constraint"
	"medea/internal/core"
	"medea/internal/lra"
	"medea/internal/metrics"
	"medea/internal/resource"
)

// Config parameterises the serving layer (the scheduler core has its own
// core.Config).
type Config struct {
	// PollEvery is the scheduling-loop granularity: how often the loop
	// wakes to drain the submit queue and offer the core a Tick (0 =
	// 20ms). The core's own Interval still decides when cycles fire.
	PollEvery time.Duration
	// QueueCap bounds the submit queue between accept path and
	// scheduling loop (0 = 1024).
	QueueCap int
	// Admission sets the overload watermarks. A zero value enables queue
	// protection at QueueCap (high) / QueueCap/2 (low) and journal-lag
	// protection at 4096/2048.
	Admission AdmissionConfig
	// RateLimit sets the per-tenant fair-share budget (zero GlobalRate =
	// unlimited).
	RateLimit RateLimitConfig
	// ReservationTTL bounds capacity reservations whose request carries
	// no TTL (0 = 30s). Expired reservations are swept by the scheduling
	// loop.
	ReservationTTL time.Duration
	// Clock is the time source (nil = time.Now). Tests inject a manual
	// clock to drive rate-limit refill and deadline expiry
	// deterministically.
	Clock func() time.Time
	// Logf receives operational log lines (nil = discarded).
	Logf func(format string, args ...any)
}

func (c Config) pollEvery() time.Duration {
	if c.PollEvery > 0 {
		return c.PollEvery
	}
	return 20 * time.Millisecond
}

func (c Config) queueCap() int {
	if c.QueueCap > 0 {
		return c.QueueCap
	}
	return 1024
}

// defaultTenant is the tenant of a request that names none.
const defaultTenant = "default"

// overloadRetryAfter is the Retry-After hint of overload rejections,
// before jitter.
const overloadRetryAfter = time.Second

// maxOutcomes bounds the terminal-outcome memory (shed/expired/failed/
// removed apps the core no longer knows about).
const maxOutcomes = 8192

// Server wires a core.Medea behind HTTP handlers and a scheduling loop.
// The core is not concurrency-safe, so every core access goes through
// s.mu; the submit hot path deliberately never takes it — admission
// decisions read atomically published gauges the loop refreshes.
type Server struct {
	cfg   Config
	mu    sync.Mutex // guards med and deadlines
	med   *core.Medea
	queue *submitQueue
	adm   *Admission
	rl    *TenantLimiter
	Stats metrics.ServerStats

	// deadlines holds propagated request deadlines for apps handed to
	// the core, keyed by app ID (guarded by mu).
	deadlines map[string]time.Time

	// Gauges published by the scheduling loop for the lock-free accept
	// path.
	corePending atomic.Int64 // core pending LRAs + pending repairs
	journalLag  atomic.Int64

	draining atomic.Bool
	// cordoned is the operator drain (POST /v1/drain): admission refuses
	// and stats report Draining, but existing work keeps being served and
	// the state is reversible (DELETE /v1/drain) — unlike the one-way
	// process-shutdown draining above. Both are in-memory only: a restart
	// rejoins uncordoned.
	cordoned atomic.Bool

	// resv holds capacity reservations (the PREPARE half of cross-cluster
	// migration). In-memory only: a restart releases everything.
	resv *reservationTable

	// retrySeq keys the deterministic jitter of overload Retry-After
	// hints, so consecutive rejected clients get distinct retry horizons.
	retrySeq atomic.Int64

	outMu    sync.Mutex
	outcomes map[string]string // appID -> terminal outcome
	outOrder []string

	// coreApps mirrors the set of app IDs the core currently holds as
	// pending or deployed. The accept path consults it (under its own
	// mutex, never the core lock) so a resubmission of an ID that already
	// drained out of the submit queue still gets a 409 — federation
	// balancers rely on that answer to reconcile timed-out attempts.
	// Maintained by the scheduling loop: IDs are added as the queue drains
	// into the core and the set is rebuilt from the core after each cycle.
	coreMu   sync.Mutex
	coreApps map[string]bool

	mux *http.ServeMux
}

// New builds a server over an existing scheduler instance. The caller
// keeps ownership of the core's journal (Close it after Drain).
func New(med *core.Medea, cfg Config) *Server {
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Admission == (AdmissionConfig{}) {
		cfg.Admission = AdmissionConfig{
			QueueHigh: cfg.queueCap(),
			QueueLow:  cfg.queueCap() / 2,
			LagHigh:   4096,
			LagLow:    2048,
		}
	}
	s := &Server{
		cfg:       cfg,
		med:       med,
		queue:     newSubmitQueue(cfg.queueCap()),
		adm:       NewAdmission(cfg.Admission),
		rl:        NewTenantLimiter(cfg.RateLimit),
		deadlines: make(map[string]time.Time),
		outcomes:  make(map[string]string),
		coreApps:  make(map[string]bool),
		resv:      newReservationTable(),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/lras", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/lras/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/lras/{id}", s.handleRemove)
	s.mux.HandleFunc("POST /v1/constraints", s.handleConstraints)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("POST /v1/reservations", s.handleReserve)
	s.mux.HandleFunc("DELETE /v1/reservations/{id}", s.handleUnreserve)
	s.mux.HandleFunc("POST /v1/drain", s.handleCordon)
	s.mux.HandleFunc("DELETE /v1/drain", s.handleUncordon)
	return s
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// now reads the server's single time source. The clock is resolved once
// in New (nil config → time.Now), so there is no wall-clock fallback on
// any code path — a simulated server can never accidentally observe real
// time.
func (s *Server) now() time.Time { return s.cfg.Clock() }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// load assembles the admission controller's overload signal from the
// published gauges — no core lock on the accept path.
func (s *Server) load() Load {
	return Load{
		Queue:      s.queue.Len() + int(s.corePending.Load()),
		JournalLag: int(s.journalLag.Load()),
	}
}

// setOutcome records a terminal outcome for an app the core will never
// know about (shed, expired, failed) or no longer knows about (removed),
// bounded to the most recent maxOutcomes entries.
func (s *Server) setOutcome(appID, outcome string) {
	s.outMu.Lock()
	defer s.outMu.Unlock()
	if _, ok := s.outcomes[appID]; !ok {
		s.outOrder = append(s.outOrder, appID)
		if len(s.outOrder) > maxOutcomes {
			delete(s.outcomes, s.outOrder[0])
			s.outOrder = s.outOrder[1:]
		}
	}
	s.outcomes[appID] = outcome
}

func (s *Server) getOutcome(appID string) (string, bool) {
	s.outMu.Lock()
	defer s.outMu.Unlock()
	o, ok := s.outcomes[appID]
	return o, ok
}

func (s *Server) clearOutcome(appID string) {
	s.outMu.Lock()
	defer s.outMu.Unlock()
	delete(s.outcomes, appID)
}

// registerCoreApp / dropCoreApp / inCore maintain and query the coreApps
// mirror (see the field comment).
func (s *Server) registerCoreApp(appID string) {
	s.coreMu.Lock()
	defer s.coreMu.Unlock()
	s.coreApps[appID] = true
}

func (s *Server) dropCoreApp(appID string) {
	s.coreMu.Lock()
	defer s.coreMu.Unlock()
	delete(s.coreApps, appID)
}

func (s *Server) inCore(appID string) bool {
	s.coreMu.Lock()
	defer s.coreMu.Unlock()
	return s.coreApps[appID]
}

// refreshCoreAppsLocked rebuilds the mirror from the core's pending and
// deployed sets; must be called with s.mu held.
func (s *Server) refreshCoreAppsLocked() {
	fresh := make(map[string]bool)
	for _, id := range s.med.PendingApps() {
		fresh[id] = true
	}
	for _, id := range s.med.DeployedApps() {
		fresh[id] = true
	}
	s.coreMu.Lock()
	s.coreApps = fresh
	s.coreMu.Unlock()
}

// Wire types.

// GroupSpec is one container group of a submission.
type GroupSpec struct {
	Name     string   `json:"name"`
	Count    int      `json:"count"`
	MemoryMB int64    `json:"memoryMB"`
	VCores   int64    `json:"vcores"`
	Tags     []string `json:"tags,omitempty"`
}

// SubmitRequest is the POST /v1/lras payload. Constraints use the
// textual syntax of the paper's §4.2, e.g. "{hb_rs, {hb_rs, 0, 1}, node}".
type SubmitRequest struct {
	ID          string      `json:"id"`
	Groups      []GroupSpec `json:"groups"`
	Constraints []string    `json:"constraints,omitempty"`
	// Tenant attributes the submission for rate limiting; the
	// X-Medea-Tenant header takes precedence.
	Tenant string `json:"tenant,omitempty"`
	// Priority orders load shedding: when the submit queue is full, the
	// lowest-priority queued work is shed first. Higher is better; 0 is
	// the default.
	Priority int `json:"priority,omitempty"`
	// TimeoutMs is the request deadline: if no scheduling cycle picks
	// the submission up within it, the submission is dropped and the
	// status reports "expired". It also propagates into the cycle's
	// solver budget. 0 = no deadline.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// StatusResponse is the GET /v1/lras/{id} payload.
type StatusResponse struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Retries is the consumed retry budget (state "pending").
	Retries int `json:"retries,omitempty"`
	// Containers lists live containers with their nodes (state
	// "deployed").
	Containers []ContainerStatus `json:"containers,omitempty"`
}

// ContainerStatus is one live container of a deployed LRA.
type ContainerStatus struct {
	ID   string `json:"id"`
	Node int    `json:"node"`
}

type errorResponse struct {
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64(d / time.Second)
	if d%time.Second != 0 {
		secs++ // round up: Retry-After is integral seconds
	}
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// buildApplication converts the wire request into an lra.Application.
func buildApplication(req *SubmitRequest) (*lra.Application, error) {
	app := &lra.Application{ID: req.ID}
	for _, g := range req.Groups {
		tags := make([]constraint.Tag, len(g.Tags))
		for i, t := range g.Tags {
			tags[i] = constraint.Tag(t)
		}
		app.Groups = append(app.Groups, lra.ContainerGroup{
			Name:   g.Name,
			Count:  g.Count,
			Demand: resource.New(g.MemoryMB, g.VCores),
			Tags:   tags,
		})
	}
	for _, cs := range req.Constraints {
		c, err := constraint.Parse(cs)
		if err != nil {
			return nil, fmt.Errorf("constraint %q: %w", cs, err)
		}
		app.Constraints = append(app.Constraints, c)
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	return app, nil
}

// retryAfterHint resolves the Retry-After duration for overload
// rejections, jittered per rejection so that clients shed together do
// not come back together (the same retry-storm defense as the rate
// limiter's RetryJitter).
func (s *Server) retryAfterHint() time.Duration {
	return overloadRetryAfter + retryJitterFor(overloadRetryAfter, s.cfg.RateLimit.retryJitter(), "overload", s.retrySeq.Add(1))
}

// handleSubmit is the guarded accept path: drain gate, rate limit,
// admission watermarks, bounded queue — in that order, all without the
// core lock.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.refusing() {
		s.Stats.AddRejectedDrain()
		writeRetryAfter(w, s.retryAfterHint())
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "draining"})
		return
	}
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request", Reason: err.Error()})
		return
	}
	tenant := r.Header.Get("X-Medea-Tenant")
	if tenant == "" {
		tenant = req.Tenant
	}
	if tenant == "" {
		tenant = defaultTenant
	}
	now := s.now()
	// A submission arriving under a capacity reservation already passed
	// admission when the reservation was granted — re-checking rate or
	// watermark here could strand a migration mid-COMMIT behind organic
	// traffic. It still competes for the bounded queue like everyone else.
	if !s.resv.has(req.ID) {
		if ok, retry := s.rl.Allow(tenant, now); !ok {
			s.Stats.AddThrottled()
			writeRetryAfter(w, retry)
			writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "throttled", Reason: "tenant rate share exhausted"})
			return
		}
		if ok, reason := s.adm.Admit(s.load()); !ok {
			s.Stats.AddShedOverload()
			writeRetryAfter(w, s.retryAfterHint())
			writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "overloaded", Reason: reason})
			return
		}
	}
	app, err := buildApplication(&req)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid application", Reason: err.Error()})
		return
	}
	if s.queue.Contains(app.ID) {
		writeJSON(w, http.StatusConflict, errorResponse{Error: "already queued"})
		return
	}
	if s.inCore(app.ID) {
		writeJSON(w, http.StatusConflict, errorResponse{Error: "already scheduled", Reason: "id is pending or deployed"})
		return
	}
	e := &submitEntry{app: app, tenant: tenant, priority: req.Priority, enqueued: now}
	if req.TimeoutMs > 0 {
		e.deadline = now.Add(time.Duration(req.TimeoutMs) * time.Millisecond)
	}
	victim, res := s.queue.Push(e)
	switch res {
	case pushClosed:
		// Lost the race with a concurrent Drain: the queue was flushed and
		// will never be read again, so acknowledging the entry would lose
		// it. Reject exactly like the drain gate above.
		s.Stats.AddRejectedDrain()
		writeRetryAfter(w, s.retryAfterHint())
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "draining"})
		return
	case pushFull:
		s.Stats.AddShedQueueFull()
		writeRetryAfter(w, s.retryAfterHint())
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "queue full", Reason: "submission shed"})
		return
	}
	if victim != nil {
		s.Stats.AddShedQueueFull()
		s.setOutcome(victim.app.ID, "shed")
		s.logf("shed queued %s (priority %d) for %s (priority %d)",
			victim.app.ID, victim.priority, app.ID, e.priority)
	}
	s.clearOutcome(app.ID) // resubmission after shed/expiry starts fresh
	s.Stats.AddAdmitted()
	writeJSON(w, http.StatusAccepted, map[string]string{"id": app.ID, "state": "queued"})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.queue.Contains(id) {
		writeJSON(w, http.StatusOK, StatusResponse{ID: id, State: "queued"})
		return
	}
	s.mu.Lock()
	if ids, ok := s.med.Deployed(id); ok {
		resp := StatusResponse{ID: id, State: "deployed"}
		for _, cid := range ids {
			node, _ := s.med.Cluster.ContainerNode(cid)
			resp.Containers = append(resp.Containers, ContainerStatus{ID: string(cid), Node: int(node)})
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, resp)
		return
	}
	if retries, ok := s.med.PendingRetries(id); ok {
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, StatusResponse{ID: id, State: "pending", Retries: retries})
		return
	}
	rejected := false
	for _, rid := range s.med.Rejected {
		if rid == id {
			rejected = true
			break
		}
	}
	s.mu.Unlock()
	if rejected {
		writeJSON(w, http.StatusOK, StatusResponse{ID: id, State: "rejected"})
		return
	}
	if o, ok := s.getOutcome(id); ok {
		writeJSON(w, http.StatusOK, StatusResponse{ID: id, State: o})
		return
	}
	writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown application"})
}

func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if s.queue.Remove(id) {
		s.setOutcome(id, "removed")
		s.Stats.AddRemoved()
		writeJSON(w, http.StatusOK, map[string]string{"id": id, "state": "removed"})
		return
	}
	s.mu.Lock()
	var err error
	// The app may have drained into the core without deploying yet:
	// withdraw it from the pending queue, else tear down the deployment.
	if !s.med.WithdrawLRA(id, s.now()) {
		err = s.med.RemoveLRA(id)
	}
	if err == nil {
		delete(s.deadlines, id)
	}
	s.mu.Unlock()
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
		return
	}
	s.dropCoreApp(id)
	s.setOutcome(id, "removed")
	s.Stats.AddRemoved()
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "state": "removed"})
}

// ConstraintRequest is the POST /v1/constraints payload: operator
// constraints in the textual syntax.
type ConstraintRequest struct {
	Constraints []string `json:"constraints"`
}

func (s *Server) handleConstraints(w http.ResponseWriter, r *http.Request) {
	if s.refusing() {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "draining"})
		return
	}
	var req ConstraintRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request", Reason: err.Error()})
		return
	}
	if len(req.Constraints) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "no constraints"})
		return
	}
	parsed := make([]constraint.Constraint, 0, len(req.Constraints))
	for _, cs := range req.Constraints {
		c, err := constraint.Parse(cs)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid constraint", Reason: err.Error()})
			return
		}
		parsed = append(parsed, c)
	}
	s.mu.Lock()
	err := s.med.Constraints.AddOperator(parsed...)
	if err == nil {
		// Operator constraints have no WAL record of their own: make them
		// durable immediately via a checkpoint.
		err = s.med.Checkpoint(s.now())
	}
	s.mu.Unlock()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"added": len(parsed)})
}

// StatsResponse is the GET /v1/stats payload.
type StatsResponse struct {
	Admitted      int  `json:"admitted"`
	Throttled     int  `json:"throttled"`
	ShedOverload  int  `json:"shed_overload"`
	ShedQueueFull int  `json:"shed_queue_full"`
	Expired       int  `json:"expired"`
	RejectedDrain int  `json:"rejected_drain"`
	SubmitErrors  int  `json:"submit_errors"`
	Removed       int  `json:"removed"`
	DrainFlushed  int  `json:"drain_flushed"`
	QueueDepth    int  `json:"queue_depth"`
	QueueCap      int  `json:"queue_cap"`
	CorePending   int  `json:"core_pending"`
	JournalLag    int  `json:"journal_lag"`
	Draining      bool `json:"draining"`

	Shedding []string       `json:"shedding,omitempty"`
	Tenants  []TenantCounts `json:"tenants,omitempty"`

	Deployed int `json:"deployed"`
	Rejected int `json:"rejected"`

	// Capacity self-report: resources free and total on up nodes, and the
	// node availability split. A federation scout scores member clusters
	// by these.
	FreeMemMB   int64 `json:"free_mem_mb"`
	FreeVCores  int64 `json:"free_vcores"`
	TotalMemMB  int64 `json:"total_mem_mb"`
	TotalVCores int64 `json:"total_vcores"`
	NodesUp     int   `json:"nodes_up"`
	NodesTotal  int   `json:"nodes_total"`

	// Reservation self-report: outstanding PREPARE holds. The Free*
	// figures above are already debited by these, so a scout ranking
	// members never double-books promised capacity.
	ReservedMemMB  int64 `json:"reserved_mem_mb"`
	ReservedVCores int64 `json:"reserved_vcores"`
	Reservations   int   `json:"reservations"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	deployed := s.med.DeployedLRAs()
	rejected := len(s.med.Rejected)
	free, total, up, nodes := s.med.Capacity()
	s.mu.Unlock()
	reserved, nresv := s.resv.snapshot()
	// Debit outstanding reservations from the self-reported free capacity
	// (clamped at zero per dimension) so federation ranking sees promised
	// space as taken.
	freeMem := free.MemoryMB - reserved.MemoryMB
	if freeMem < 0 {
		freeMem = 0
	}
	freeCores := free.VCores - reserved.VCores
	if freeCores < 0 {
		freeCores = 0
	}
	_, dims := s.adm.Shedding()
	resp := StatsResponse{
		Admitted:      s.Stats.Admitted(),
		Throttled:     s.Stats.Throttled(),
		ShedOverload:  s.Stats.ShedOverload(),
		ShedQueueFull: s.Stats.ShedQueueFull(),
		Expired:       s.Stats.Expired(),
		RejectedDrain: s.Stats.RejectedDrain(),
		SubmitErrors:  s.Stats.SubmitErrors(),
		Removed:       s.Stats.Removed(),
		DrainFlushed:  s.Stats.DrainFlushed(),
		QueueDepth:    s.queue.Len(),
		QueueCap:      s.cfg.queueCap(),
		CorePending:   int(s.corePending.Load()),
		JournalLag:    int(s.journalLag.Load()),
		Draining:      s.refusing(),
		Shedding:      dims,
		Tenants:       s.rl.Snapshot(),
		Deployed:      deployed,
		Rejected:      rejected,
		FreeMemMB:     freeMem,
		FreeVCores:    freeCores,
		TotalMemMB:    total.MemoryMB,
		TotalVCores:   total.VCores,
		NodesUp:       up,
		NodesTotal:    nodes,

		ReservedMemMB:  reserved.MemoryMB,
		ReservedVCores: reserved.VCores,
		Reservations:   nresv,
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.refusing() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
