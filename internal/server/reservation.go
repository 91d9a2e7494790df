package server

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"

	"medea/internal/resource"
)

// Capacity reservations are the server half of the federation's
// two-phase cross-cluster migration: before a migrator submits an app
// here (COMMIT), it reserves the app's demand (PREPARE). A reservation
// debits the capacity this member self-reports on /v1/stats, so the
// federation scout — and every balancer ranking members off its reports
// — sees the promised space as taken before the submission arrives.
//
// Reservations are deliberately soft state: each carries a TTL and an
// expiry sweep runs in the scheduling loop, so a reservation leaked by a
// crashed balancer can never debit capacity forever; and the table lives
// only in process memory, so a member restart (journal recovery builds a
// fresh serving layer) releases everything outstanding. Both properties
// are what make the migration protocol's ABORT path allowed to be
// best-effort.

// defaultReservationTTL bounds a reservation whose request carries no
// TTL of its own.
const defaultReservationTTL = 30 * time.Second

// reservation is one held slice of capacity, keyed by the app ID it is
// held for.
type reservation struct {
	demand  resource.Vector
	expires time.Time
}

// reservationTable is the concurrency-safe reservation store. It is
// intentionally separate from the core: reservations gate the *stats
// self-report* and the reserve endpoint's own fit check, never the
// scheduler's placement math — a submission that lands consumes real
// capacity through the core as usual, and the sweep retires its
// reservation.
type reservationTable struct {
	mu   sync.Mutex
	byID map[string]*reservation
}

func newReservationTable() *reservationTable {
	return &reservationTable{byID: make(map[string]*reservation)}
}

// reserveResult enumerates the outcomes of a reserve attempt.
type reserveResult int

const (
	reserveCreated reserveResult = iota
	reserveRefreshed
	reserveMismatch
	reserveNoFit
)

// reserve places or refreshes a reservation: an existing reservation
// with the same demand is refreshed (idempotent PREPARE retries), a
// demand mismatch is a conflict, and a new reservation is fit-checked
// against free capacity minus everything already reserved.
func (t *reservationTable) reserve(id string, demand resource.Vector, free resource.Vector, now, expires time.Time) reserveResult {
	t.mu.Lock()
	defer t.mu.Unlock()
	if r := t.byID[id]; r != nil {
		if r.demand != demand {
			return reserveMismatch
		}
		r.expires = expires
		return reserveRefreshed
	}
	var held resource.Vector
	for _, r := range t.byID {
		held = held.Add(r.demand)
	}
	if !demand.Fits(free.Sub(held)) {
		return reserveNoFit
	}
	t.byID[id] = &reservation{demand: demand, expires: expires}
	return reserveCreated
}

// release drops a reservation, reporting whether one existed.
func (t *reservationTable) release(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.byID[id]; !ok {
		return false
	}
	delete(t.byID, id)
	return true
}

// has reports whether a reservation exists for the app.
func (t *reservationTable) has(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byID[id] != nil
}

// snapshot returns the total reserved demand and the reservation count.
func (t *reservationTable) snapshot() (resource.Vector, int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	var held resource.Vector
	for _, r := range t.byID {
		held = held.Add(r.demand)
	}
	return held, len(t.byID)
}

// expire drops every reservation past its TTL at now, returning the
// expired IDs (sorted, for deterministic logs).
func (t *reservationTable) expire(now time.Time) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	for id, r := range t.byID {
		if now.After(r.expires) {
			out = append(out, id)
			delete(t.byID, id)
		}
	}
	sort.Strings(out)
	return out
}

// consume drops every reservation whose app the landed predicate
// confirms (queued or in the core): the held space is now real
// allocation, the reservation's job is done. Returns the consumed IDs.
func (t *reservationTable) consume(landed func(id string) bool) []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []string
	for id := range t.byID {
		if landed(id) {
			out = append(out, id)
			delete(t.byID, id)
		}
	}
	sort.Strings(out)
	return out
}

// clear empties the table (cordon: a draining member holds no promises).
func (t *reservationTable) clear() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(t.byID)
	t.byID = make(map[string]*reservation)
	return n
}

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

// reservationTTL resolves a request's TTL.
func (s *Server) reservationTTL(req *ReserveRequest) time.Duration {
	if req.TTLMs > 0 {
		return time.Duration(req.TTLMs) * time.Millisecond
	}
	if s.cfg.ReservationTTL > 0 {
		return s.cfg.ReservationTTL
	}
	return defaultReservationTTL
}

// handleReserve is PREPARE's server side: idempotent (a retry of the
// same id+demand refreshes the TTL), conflicting on demand mismatch
// (409), and honest about capacity — the fit check sees free capacity
// minus everything already reserved (503 when it does not fit). An app
// this member already holds answers "present" without holding anything:
// the migrator's COMMIT will find it via the usual 409-adoption path.
func (s *Server) handleReserve(w http.ResponseWriter, r *http.Request) {
	if s.refusing() {
		s.Stats.AddRejectedDrain()
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
	if s.queue.Contains(req.ID) || s.inCore(req.ID) {
		writeJSON(w, http.StatusOK, ReserveResponse{ID: req.ID, State: "present"})
		return
	}
	now := s.now()
	demand := resource.New(req.MemMB, req.VCores)
	s.mu.Lock()
	free, _, _, _ := s.med.Capacity()
	s.mu.Unlock()
	switch s.resv.reserve(req.ID, demand, free, now, now.Add(s.reservationTTL(&req))) {
	case reserveCreated:
		s.Stats.AddReserved()
		s.logf("reserved %v for %s", demand, req.ID)
		writeJSON(w, http.StatusCreated, ReserveResponse{ID: req.ID, State: "reserved"})
	case reserveRefreshed:
		writeJSON(w, http.StatusOK, ReserveResponse{ID: req.ID, State: "reserved"})
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
	if s.resv.release(id) {
		s.Stats.AddReservationReleased()
		s.logf("released reservation for %s", id)
	}
	writeJSON(w, http.StatusOK, ReserveResponse{ID: id, State: "released"})
}

// sweepReservations retires reservations past their TTL and reservations
// whose app has landed (queued or in the core); called from the
// scheduling loop.
func (s *Server) sweepReservations(now time.Time) {
	for _, id := range s.resv.expire(now) {
		s.Stats.AddReservationExpired()
		s.logf("reservation for %s expired", id)
	}
	for _, id := range s.resv.consume(func(id string) bool {
		return s.queue.Contains(id) || s.inCore(id)
	}) {
		s.Stats.AddReservationConsumed()
		s.logf("reservation for %s consumed by its submission", id)
	}
}

// handleCordon puts the member in operator-driven draining: admission
// refuses (503), the stats self-report flags Draining so federation
// balancers stop ranking this member as a destination, and outstanding
// reservations are flushed — a draining member makes no promises. This
// is the reversible, keep-serving-existing-work counterpart of the
// process-shutdown Drain(ctx): deployed apps keep running and their
// status/removal endpoints keep answering.
func (s *Server) handleCordon(w http.ResponseWriter, r *http.Request) {
	if s.cordoned.CompareAndSwap(false, true) {
		if n := s.resv.clear(); n > 0 {
			s.logf("cordon flushed %d reservations", n)
		}
		s.logf("cordoned: admission closed for drain")
	}
	writeJSON(w, http.StatusOK, map[string]any{"draining": true})
}

// handleUncordon reopens admission after a cordon.
func (s *Server) handleUncordon(w http.ResponseWriter, r *http.Request) {
	if s.cordoned.CompareAndSwap(true, false) {
		s.logf("uncordoned: admission reopened")
	}
	writeJSON(w, http.StatusOK, map[string]any{"draining": false})
}

// refusing reports whether admission is closed — by the shutdown drain
// or by an operator cordon.
func (s *Server) refusing() bool {
	return s.draining.Load() || s.cordoned.Load()
}
