package server

import (
	"encoding/json"
	"net/http"
	"time"

	"medea/internal/metrics"
	"medea/internal/resource"
)

// Capacity reservations are the server half of the federation's
// two-phase cross-cluster migration: before a migrator submits an app
// here (COMMIT), it reserves the app's demand (PREPARE). A reservation
// debits the capacity this member self-reports on /v1/report (and
// /v1/stats), so the federation scout — and every balancer ranking
// members off its reports — sees the promised space as taken before the
// submission arrives.
//
// A reservation is a mark on the app's ledger entry, deliberately apart
// from the core: it gates the *capacity self-report* and the reserve
// endpoint's own fit check, never the scheduler's placement math — a
// submission that lands consumes real capacity through the core as
// usual, and the sweep retires its reservation.
//
// Reservations are deliberately soft state: each carries a TTL and an
// expiry sweep runs in the scheduling loop, so a reservation leaked by a
// crashed balancer can never debit capacity forever; and the ledger lives
// only in process memory, so a member restart (journal recovery builds a
// fresh serving layer) releases everything outstanding. Both properties
// are what make the migration protocol's ABORT path allowed to be
// best-effort.

// Wire types.

// ReserveRequest is the POST /v1/reservations payload: hold MemMB×VCores
// of capacity for the app for TTLMs (0 = the server default).
type ReserveRequest struct {
	ID     string `json:"id"`
	MemMB  int64  `json:"mem_mb"`
	VCores int64  `json:"vcores"`
	TTLMs  int64  `json:"ttl_ms,omitempty"`
}

// ReserveResponse is the reservation endpoints' payload.
type ReserveResponse struct {
	ID    string `json:"id"`
	State string `json:"state"` // reserved | present | released
}

// handleReserve is PREPARE's server side: idempotent (a retry of the
// same id+demand refreshes the TTL), conflicting on demand mismatch
// (409), and honest about capacity — the fit check sees free capacity
// minus everything already reserved (503 when it does not fit). An app
// this member already holds answers "present" without holding anything:
// the migrator's COMMIT will find it via the usual 409-adoption path.
func (s *Server) handleReserve(w http.ResponseWriter, r *http.Request) {
	if s.refusing() {
		s.Stats.Add(metrics.RejectedDrain, 1)
		writeRetryAfter(w, s.retryAfterHint())
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "draining"})
		return
	}
	var req ReserveRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request", Reason: err.Error()})
		return
	}
	if req.ID == "" || req.MemMB < 0 || req.VCores < 0 || (req.MemMB == 0 && req.VCores == 0) {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "invalid reservation", Reason: "id and a positive demand are required"})
		return
	}
	ttl := s.cfg.ReservationTTL
	if req.TTLMs > 0 {
		ttl = time.Duration(req.TTLMs) * time.Millisecond
	}
	hold := &reservation{demand: resource.New(req.MemMB, req.VCores), expires: s.now().Add(ttl)}
	s.mu.Lock()
	free, _, _, _ := s.med.Capacity()
	s.mu.Unlock()
	switch s.led.reserve(req.ID, hold, free) {
	case reserveCreated:
		writeJSON(w, http.StatusCreated, ReserveResponse{ID: req.ID, State: "reserved"})
	case reserveRefreshed:
		writeJSON(w, http.StatusOK, ReserveResponse{ID: req.ID, State: "reserved"})
	case reservePresent:
		writeJSON(w, http.StatusOK, ReserveResponse{ID: req.ID, State: "present"})
	case reserveMismatch:
		writeJSON(w, http.StatusConflict, errorResponse{Error: "reservation conflict", Reason: "a reservation with different demand exists for this id"})
	default: // reserveNoFit
		writeRetryAfter(w, s.retryAfterHint())
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "insufficient capacity", Reason: "free minus reserved does not fit the demand"})
	}
}

// handleUnreserve is ABORT's server side: idempotently release the
// reservation (releasing nothing is still a 200 — the TTL sweep may have
// beaten the caller to it).
func (s *Server) handleUnreserve(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.led.apply(id, evRelease, evArg{})
	writeJSON(w, http.StatusOK, ReserveResponse{ID: id, State: "released"})
}

// handleCordon puts the member in operator-driven draining: admission
// refuses (503), the capacity self-report flags Draining so federation
// balancers stop ranking this member as a destination, and outstanding
// reservations are flushed — a draining member makes no promises. This
// is the reversible, keep-serving-existing-work counterpart of
// Shutdown(ctx): deployed apps keep running and their status/removal
// endpoints keep answering.
func (s *Server) handleCordon(w http.ResponseWriter, r *http.Request) {
	if s.cordoned.CompareAndSwap(false, true) {
		s.led.flush()
		s.cfg.Logf("cordoned: admission closed for drain")
	}
	writeJSON(w, http.StatusOK, map[string]any{"draining": true})
}

// handleUncordon reopens admission after a cordon.
func (s *Server) handleUncordon(w http.ResponseWriter, r *http.Request) {
	if s.cordoned.CompareAndSwap(true, false) {
		s.cfg.Logf("uncordoned: admission reopened")
	}
	writeJSON(w, http.StatusOK, map[string]any{"draining": false})
}

// refusing reports whether admission is closed — by Shutdown or by an
// operator cordon.
func (s *Server) refusing() bool {
	return s.shuttingDown.Load() || s.cordoned.Load()
}
