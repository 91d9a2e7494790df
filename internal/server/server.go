// Package server turns the Medea library into a serving system: an
// HTTP/JSON (stdlib-only) scheduler-as-a-service over core.Medea,
// wrapped in an overload-control layer. The accept path is guarded by
// three independent protections, checked in order of cost:
//
//  1. per-tenant token-bucket rate limiting with a fair-share global
//     budget — one tenant cannot starve the others (429 + Retry-After);
//  2. watermark admission control with hysteresis over the submission
//     backlog (queued, pending and in-repair work) — the server rejects
//     fast instead of letting latency collapse (429 + Retry-After);
//  3. a bounded submit queue between the accept path and the scheduling
//     loop that sheds the lowest-priority work first when full (503).
//
// Request deadlines propagate from the submit payload through the queue
// into the scheduling cycle's solver budget, and graceful shutdown stops
// admission, flushes or journals the in-flight work, checkpoints and
// returns — so a SIGTERM under load loses nothing that was committed.
package server

import (
	"cmp"
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
	// protection at QueueCap (high) / QueueCap/2 (low).
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

// defaultTenant is the tenant of a request that names none.
const defaultTenant = "default"

// overloadRetryAfter is the Retry-After hint of overload rejections,
// before jitter.
const overloadRetryAfter = time.Second

// maxOutcomes bounds the ledger's memory of how apps left (shed, expired,
// failed, removed, rejected).
const maxOutcomes = 8192

// Server wires a core.Medea behind HTTP handlers and a scheduling loop.
//
// Two locks. The core lock mu serialises every access to med, which is
// not concurrency-safe; the loop holds it for a whole iteration, solver
// included. The ledger lock (led.mu) guards what the server knows about
// each app ID. Order: core lock first, ledger lock inside it; the ledger
// never calls out, so nothing waits on the core while holding it.
// Invariant: under the core lock, the ledger's pending and deployed
// entries are exactly the apps the core holds — the writers that move
// both sides (the loop's hand-off and settle, handleRemove) do so in one
// hold of it. The submit hot path never takes the core lock: it claims
// and queues in the ledger, and admission reads gauges the loop publishes.
type Server struct {
	cfg   Config
	mu    sync.Mutex // the core lock: guards med
	med   *core.Medea
	led   *ledger
	adm   *Admission
	rl    *TenantLimiter
	Stats metrics.ServerStats

	// Gauges published by the scheduling loop for the lock-free accept
	// path and the self-reports (/v1/report, /v1/stats).
	corePending atomic.Int64 // core pending LRAs + pending repairs
	journalLag  atomic.Int64 // records a recovery would replay

	// shuttingDown is set, for good, by Shutdown.
	shuttingDown atomic.Bool
	// cordoned is the operator drain (POST /v1/drain): admission refuses
	// and stats report Draining, but existing work keeps being served and
	// the state is reversible (DELETE /v1/drain) — unlike the one-way
	// shutdown above. Both are in-memory only: a restart rejoins
	// uncordoned.
	cordoned atomic.Bool

	// epoch is the core's incarnation number (core.Medea.Epoch), read once:
	// a server is built once per incarnation, so its outcome numbers
	// restart with a new epoch and never repeat under an old one.
	epoch uint64

	// retrySeq keys the deterministic jitter of overload Retry-After
	// hints, so consecutive rejected clients get distinct retry horizons.
	retrySeq atomic.Int64

	mux *http.ServeMux
}

// New builds a server over an existing scheduler instance. The caller
// keeps ownership of the core's journal (Close it after Shutdown). Every
// default of cfg is resolved here, once.
func New(med *core.Medea, cfg Config) *Server {
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = 20 * time.Millisecond
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 1024
	}
	if cfg.ReservationTTL <= 0 {
		cfg.ReservationTTL = 30 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Admission == (AdmissionConfig{}) {
		cfg.Admission = AdmissionConfig{
			QueueHigh: cfg.QueueCap,
			QueueLow:  cfg.QueueCap / 2,
		}
	}
	s := &Server{
		cfg: cfg,
		med: med,
		adm: NewAdmission(cfg.Admission),
		rl:  NewTenantLimiter(cfg.RateLimit),

		epoch: med.Epoch(),
	}
	s.led = newLedger(cfg.QueueCap, &s.Stats, cfg.Logf)
	// A core recovered from its journal holds apps already. An ID it
	// rejected may have come back since, and is then left as it is.
	s.led.each(med.PendingApps(), evRecover)
	s.led.each(med.DeployedApps(), evRecover, evDeploy)
	s.led.each(med.Rejected, evRecover, evReject)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/lras", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/lras", s.handleStates)
	s.mux.HandleFunc("GET /v1/lras/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/outcomes", s.handleOutcomes)
	s.mux.HandleFunc("DELETE /v1/lras/{id}", s.handleRemove)
	s.mux.HandleFunc("POST /v1/constraints", s.handleConstraints)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/report", s.handleReport)
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

// StatesResponse is the GET /v1/lras?id=… payload: one state per ID
// asked, in the order asked, each what GET /v1/lras/{id} reports for it,
// or "" where that read answers 404.
type StatesResponse struct {
	States []string `json:"states"`
}

// OutcomesResponse is the GET /v1/outcomes?after=K payload: the apps
// that reached a terminal state after outcome K, in order, under the
// member's epoch. Gap reports that one of them has been forgotten
// (Outcomes is then empty): the reader lost its place in the feed and
// must read the apps it cares about instead. Seq is the latest outcome
// number, the cursor for the next read.
type OutcomesResponse struct {
	Epoch    uint64    `json:"epoch"`
	Seq      uint64    `json:"seq"`
	Gap      bool      `json:"gap,omitempty"`
	Outcomes []Outcome `json:"outcomes,omitempty"`
}

// Outcome is one entry of the outcome feed: an ID's move into a
// terminal state, and its number.
type Outcome struct {
	Seq   uint64 `json:"seq"`
	ID    string `json:"id"`
	State string `json:"state"`
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
// It refuses the IDs "." and "..": no path can name them, because the
// mux cleans /v1/lras/.. away, so such an app could never be read or
// removed.
func buildApplication(req *SubmitRequest) (*lra.Application, error) {
	if req.ID == "." || req.ID == ".." {
		return nil, fmt.Errorf("application ID %q names no path", req.ID)
	}
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
// limiter's retryJitter).
func (s *Server) retryAfterHint() time.Duration {
	return overloadRetryAfter + retryJitterFor(overloadRetryAfter, "overload", s.retrySeq.Add(1))
}

// handleSubmit is the guarded accept path: the shutdown / cordon gate,
// rate limit, admission watermarks, bounded queue — in that order, all
// without the core lock.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.refusing() {
		s.Stats.Add(metrics.RejectedDrain, 1)
		writeRetryAfter(w, s.retryAfterHint())
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "draining"})
		return
	}
	var req SubmitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request", Reason: err.Error()})
		return
	}
	tenant := cmp.Or(r.Header.Get("X-Medea-Tenant"), req.Tenant, defaultTenant)
	now := s.now()
	// A submission arriving under a capacity reservation already passed
	// admission when the reservation was granted — re-checking rate or
	// watermark here could strand a migration mid-COMMIT behind organic
	// traffic. It still competes for the bounded queue like everyone else.
	if s.led.view(req.ID).resv == nil {
		if ok, retry := s.rl.Allow(tenant, now); !ok {
			s.Stats.Add(metrics.Throttled, 1)
			writeRetryAfter(w, retry)
			writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "throttled", Reason: "tenant rate share exhausted"})
			return
		}
		// The overload signal comes from the published gauges: no core
		// lock on the accept path.
		depth, _, _, _ := s.led.gauges()
		load := Load{Queue: depth + int(s.corePending.Load())}
		if ok, reason := s.adm.Admit(load); !ok {
			s.Stats.Add(metrics.ShedOverload, 1)
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
	sub := &appEntry{id: app.ID, app: app, priority: req.Priority}
	if req.TimeoutMs > 0 {
		sub.deadline = now.Add(time.Duration(req.TimeoutMs) * time.Millisecond)
	}
	// Federation balancers reconcile timed-out attempts off the 409: a
	// resubmission of a live ID must never queue a second copy.
	switch was, res := s.led.submit(sub); {
	case res == submitDuplicate && was == queued:
		writeJSON(w, http.StatusConflict, errorResponse{Error: "already queued"})
	case res == submitDuplicate:
		writeJSON(w, http.StatusConflict, errorResponse{Error: "already scheduled", Reason: "id is pending or deployed"})
	case res == submitClosed:
		// Lost the race with a concurrent shutdown: the queue was handed
		// off and will never be read again, so acknowledging the entry
		// would lose it. Reject exactly like the gate above.
		s.Stats.Add(metrics.RejectedDrain, 1)
		writeRetryAfter(w, s.retryAfterHint())
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "draining"})
	case res == submitFull:
		s.Stats.Add(metrics.ShedQueueFull, 1)
		writeRetryAfter(w, s.retryAfterHint())
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "queue full", Reason: "submission shed"})
	default:
		writeJSON(w, http.StatusAccepted, map[string]string{"id": app.ID, "state": "queued"})
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	e := s.led.view(id)
	resp := StatusResponse{ID: id}
	if e.state.inCore() {
		// The core has the details. Read the entry again under the core
		// lock, where it cannot move.
		s.mu.Lock()
		switch e = s.led.view(id); e.state {
		case pending:
			resp.Retries, _ = s.med.PendingRetries(id)
		case deployed:
			ids, _ := s.med.Deployed(id)
			for _, cid := range ids {
				node, _ := s.med.Cluster.ContainerNode(cid)
				resp.Containers = append(resp.Containers, ContainerStatus{ID: string(cid), Node: int(node)})
			}
		}
		s.mu.Unlock()
	}
	if resp.State = e.state.wire(); resp.State == "" {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown application"})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleStates is the batched status read. Like the accept path it reads
// the ledger alone and never waits on a cycle for the core lock.
func (s *Server) handleStates(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, StatesResponse{States: s.led.states(r.URL.Query()["id"])})
}

// handleOutcomes serves the outcome feed; like handleStates it reads the
// ledger alone.
func (s *Server) handleOutcomes(w http.ResponseWriter, r *http.Request) {
	after, err := strconv.ParseUint(cmp.Or(r.URL.Query().Get("after"), "0"), 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request", Reason: err.Error()})
		return
	}
	resp := OutcomesResponse{Epoch: s.epoch}
	resp.Outcomes, resp.Seq, resp.Gap = s.led.outcomes(after)
	writeJSON(w, http.StatusOK, resp)
}

// handleRemove is one decision on the entry's state: a queued entry is
// the ledger's alone to cancel; one in the core is withdrawn or torn
// down there, and the ledger told, in one hold of the core lock; anything
// else is not here to remove.
func (s *Server) handleRemove(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// What the core says of an app it does not hold.
	err := fmt.Errorf("core: LRA %s not deployed", id)
	if s.led.apply(id, evCancel, evArg{}) {
		err = nil
	} else {
		s.mu.Lock()
		switch s.led.view(id).state {
		case pending:
			s.med.WithdrawLRA(id, s.now())
			// Its remove record is only staged: durable before the 200.
			s.syncLocked()
			err = nil
		case deployed:
			err = s.med.RemoveLRA(id)
		}
		if err == nil {
			s.led.apply(id, evRemove, evArg{})
		}
		s.mu.Unlock()
	}
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: err.Error()})
		return
	}
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
	status, err := http.StatusBadRequest, s.med.Constraints.AddOperator(parsed...)
	if err == nil {
		// Operator constraints have no WAL record of their own: make them
		// durable immediately via a checkpoint. If that fails, the server
		// is at fault, and constraints it could not make durable come off
		// again rather than bind placements a restart would forget.
		if err = s.med.Checkpoint(s.now()); err != nil {
			s.med.Constraints.DropOperator(len(parsed))
			status = http.StatusInternalServerError
		}
	}
	s.mu.Unlock()
	if err != nil {
		writeJSON(w, status, errorResponse{Error: err.Error()})
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
	// node availability split. The four capacity figures are the ones
	// GET /v1/report serves, which a federation scout scores member
	// clusters by.
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

	// Outcome-feed position: the core's incarnation number and the latest
	// outcome number (GET /v1/outcomes). A reader that saw both before
	// has nothing new to read when neither moved.
	Epoch      uint64 `json:"epoch"`
	OutcomeSeq uint64 `json:"outcome_seq"`
}

// ReportResponse is the GET /v1/report payload: the capacity self-report
// a federation scout ranks members by, and nothing else. Every field
// equals the /v1/stats field of the same name.
type ReportResponse struct {
	FreeMemMB   int64  `json:"free_mem_mb"`
	FreeVCores  int64  `json:"free_vcores"`
	TotalMemMB  int64  `json:"total_mem_mb"`
	TotalVCores int64  `json:"total_vcores"`
	QueueDepth  int    `json:"queue_depth"`
	CorePending int    `json:"core_pending"`
	Draining    bool   `json:"draining"`
	Epoch       uint64 `json:"epoch"`
	OutcomeSeq  uint64 `json:"outcome_seq"`
}

// statsReads are the figures /v1/stats shows beside the report, read in
// the same holds of the core and ledger locks.
type statsReads struct {
	deployed, rejected, up, nodes, holds int
	reserved                             resource.Vector
}

// report computes the capacity self-report for both /v1/report and
// /v1/stats. The free capacity is debited by the outstanding reservations
// (clamped at zero per dimension), so federation ranking sees promised
// space as taken.
func (s *Server) report() (ReportResponse, statsReads) {
	var x statsReads
	var free, total resource.Vector
	s.mu.Lock()
	x.deployed = s.med.DeployedLRAs()
	x.rejected = len(s.med.Rejected)
	free, total, x.up, x.nodes = s.med.Capacity()
	s.mu.Unlock()
	depth, reserved, holds, outcome := s.led.gauges()
	x.reserved, x.holds = reserved, holds
	return ReportResponse{
		FreeMemMB:   max(free.MemoryMB-reserved.MemoryMB, 0),
		FreeVCores:  max(free.VCores-reserved.VCores, 0),
		TotalMemMB:  total.MemoryMB,
		TotalVCores: total.VCores,
		QueueDepth:  depth,
		CorePending: int(s.corePending.Load()),
		Draining:    s.refusing(),
		Epoch:       s.epoch,
		OutcomeSeq:  outcome,
	}, x
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	rep, _ := s.report()
	writeJSON(w, http.StatusOK, rep)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	rep, x := s.report()
	_, dims := s.adm.Shedding()
	resp := StatsResponse{
		Admitted:      s.Stats.Get(metrics.Admitted),
		Throttled:     s.Stats.Get(metrics.Throttled),
		ShedOverload:  s.Stats.Get(metrics.ShedOverload),
		ShedQueueFull: s.Stats.Get(metrics.ShedQueueFull),
		Expired:       s.Stats.Get(metrics.Expired),
		RejectedDrain: s.Stats.Get(metrics.RejectedDrain),
		SubmitErrors:  s.Stats.Get(metrics.SubmitErrors),
		Removed:       s.Stats.Get(metrics.Removed),
		DrainFlushed:  s.Stats.Get(metrics.DrainFlushed),
		QueueDepth:    rep.QueueDepth,
		QueueCap:      s.cfg.QueueCap,
		CorePending:   rep.CorePending,
		JournalLag:    int(s.journalLag.Load()),
		Draining:      rep.Draining,
		Shedding:      dims,
		Tenants:       s.rl.Snapshot(),
		Deployed:      x.deployed,
		Rejected:      x.rejected,
		FreeMemMB:     rep.FreeMemMB,
		FreeVCores:    rep.FreeVCores,
		TotalMemMB:    rep.TotalMemMB,
		TotalVCores:   rep.TotalVCores,
		NodesUp:       x.up,
		NodesTotal:    x.nodes,

		ReservedMemMB:  x.reserved.MemoryMB,
		ReservedVCores: x.reserved.VCores,
		Reservations:   x.holds,

		Epoch:      rep.Epoch,
		OutcomeSeq: rep.OutcomeSeq,
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
