package metrics

import "sync/atomic"

// ServerStats aggregates the overload-control counters of the
// scheduler-as-a-service front end: how many submissions were admitted
// into the scheduler, and how many were turned away at each protection
// layer — per-tenant rate limiting (throttled), admission watermarks
// (shed on overload), the bounded submit queue (shed on queue full),
// deadline expiry while queued, and the graceful-drain gate.
//
// The counters are atomics: the HTTP handlers, the scheduling loop and
// the drain path all record concurrently. ServerStats must not be copied
// after first use; hold it by pointer.
type ServerStats struct {
	admitted      atomic.Int64
	throttled     atomic.Int64
	shedOverload  atomic.Int64
	shedQueueFull atomic.Int64
	expired       atomic.Int64
	rejectedDrain atomic.Int64
	submitErrors  atomic.Int64
	removed       atomic.Int64
	drainFlushed  atomic.Int64

	reserved            atomic.Int64
	reservationExpired  atomic.Int64
	reservationReleased atomic.Int64
	reservationConsumed atomic.Int64
}

// AddAdmitted counts a submission accepted into the submit queue.
func (s *ServerStats) AddAdmitted() { s.admitted.Add(1) }

// AddThrottled counts a submission rejected by the per-tenant rate
// limiter (429).
func (s *ServerStats) AddThrottled() { s.throttled.Add(1) }

// AddShedOverload counts a submission rejected by an admission watermark
// (429 + Retry-After).
func (s *ServerStats) AddShedOverload() { s.shedOverload.Add(1) }

// AddShedQueueFull counts a submission shed by the bounded submit queue
// — either an incoming request the full queue rejected, or a queued
// lower-priority victim evicted to make room.
func (s *ServerStats) AddShedQueueFull() { s.shedQueueFull.Add(1) }

// AddExpired counts a queued submission dropped because its propagated
// request deadline passed before a scheduling cycle reached it.
func (s *ServerStats) AddExpired() { s.expired.Add(1) }

// AddRejectedDrain counts a submission refused because the server is
// draining (503).
func (s *ServerStats) AddRejectedDrain() { s.rejectedDrain.Add(1) }

// AddSubmitError counts a queued submission the scheduler core refused
// (duplicate ID, invalid constraints).
func (s *ServerStats) AddSubmitError() { s.submitErrors.Add(1) }

// AddRemoved counts a successful LRA teardown via the API.
func (s *ServerStats) AddRemoved() { s.removed.Add(1) }

// AddDrainFlushed counts a queued submission handed to the scheduler
// (and its journal) during graceful drain rather than being dropped.
func (s *ServerStats) AddDrainFlushed() { s.drainFlushed.Add(1) }

// AddReserved counts a capacity reservation created (migration PREPARE).
func (s *ServerStats) AddReserved() { s.reserved.Add(1) }

// AddReservationExpired counts a reservation dropped by the TTL sweep —
// the leak backstop for a crashed or partitioned reserver.
func (s *ServerStats) AddReservationExpired() { s.reservationExpired.Add(1) }

// AddReservationReleased counts an explicit reservation release
// (migration ABORT).
func (s *ServerStats) AddReservationReleased() { s.reservationReleased.Add(1) }

// AddReservationConsumed counts a reservation retired because its
// submission landed (migration COMMIT reached this member).
func (s *ServerStats) AddReservationConsumed() { s.reservationConsumed.Add(1) }

// Admitted returns the admitted-submission count.
func (s *ServerStats) Admitted() int { return int(s.admitted.Load()) }

// Throttled returns the rate-limited rejection count.
func (s *ServerStats) Throttled() int { return int(s.throttled.Load()) }

// ShedOverload returns the watermark rejection count.
func (s *ServerStats) ShedOverload() int { return int(s.shedOverload.Load()) }

// ShedQueueFull returns the bounded-queue shed count.
func (s *ServerStats) ShedQueueFull() int { return int(s.shedQueueFull.Load()) }

// Expired returns the deadline-expiry drop count.
func (s *ServerStats) Expired() int { return int(s.expired.Load()) }

// RejectedDrain returns the refused-while-draining count.
func (s *ServerStats) RejectedDrain() int { return int(s.rejectedDrain.Load()) }

// SubmitErrors returns the core-refused submission count.
func (s *ServerStats) SubmitErrors() int { return int(s.submitErrors.Load()) }

// Removed returns the API teardown count.
func (s *ServerStats) Removed() int { return int(s.removed.Load()) }

// DrainFlushed returns the drain-flushed submission count.
func (s *ServerStats) DrainFlushed() int { return int(s.drainFlushed.Load()) }

// Reserved returns the reservations-created count.
func (s *ServerStats) Reserved() int { return int(s.reserved.Load()) }

// ReservationExpired returns the TTL-swept reservation count.
func (s *ServerStats) ReservationExpired() int { return int(s.reservationExpired.Load()) }

// ReservationReleased returns the explicitly released reservation count.
func (s *ServerStats) ReservationReleased() int { return int(s.reservationReleased.Load()) }

// ReservationConsumed returns the consumed-by-landing reservation count.
func (s *ServerStats) ReservationConsumed() int { return int(s.reservationConsumed.Load()) }

// Table renders the counters as a two-column summary table.
func (s *ServerStats) Table(title string) *Table {
	t := NewTable(title, "metric", "value")
	t.AddRow("admitted", s.Admitted())
	t.AddRow("throttled (rate limit)", s.Throttled())
	t.AddRow("shed (watermarks)", s.ShedOverload())
	t.AddRow("shed (queue full)", s.ShedQueueFull())
	t.AddRow("expired (deadline)", s.Expired())
	t.AddRow("rejected (draining)", s.RejectedDrain())
	t.AddRow("submit errors", s.SubmitErrors())
	t.AddRow("removed", s.Removed())
	t.AddRow("drain flushed", s.DrainFlushed())
	t.AddRow("reservations made", s.Reserved())
	t.AddRow("reservations expired", s.ReservationExpired())
	t.AddRow("reservations released", s.ReservationReleased())
	t.AddRow("reservations consumed", s.ReservationConsumed())
	return t
}
