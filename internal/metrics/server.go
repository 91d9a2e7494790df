package metrics

// ServerCounter names one overload-control counter of the
// scheduler-as-a-service front end: how many submissions were admitted,
// and how many were turned away at each protection layer. Its names are
// the JSON fields of /v1/stats.
type ServerCounter int

const (
	Admitted            ServerCounter = iota // submissions accepted into the submit queue
	Throttled                                // refused by the per-tenant rate limiter (429)
	ShedOverload                             // refused by an admission watermark (429 + Retry-After)
	ShedQueueFull                            // shed by the bounded queue: a refused arrival or an evicted lower-priority victim
	Expired                                  // dropped from the queue when the request deadline passed
	RejectedDrain                            // refused because the server is draining (503)
	SubmitErrors                             // queued submissions the core refused (duplicate ID, invalid constraints)
	Removed                                  // LRA teardowns via the API
	DrainFlushed                             // queued submissions handed to the core (and its journal) during drain
	Reserved                                 // capacity reservations created (migration PREPARE)
	ReservationExpired                       // reservations dropped by the TTL sweep
	ReservationReleased                      // reservations released explicitly (migration ABORT)
	ReservationConsumed                      // reservations retired because their submission landed
)

var serverNames = [...]string{
	Admitted:            "admitted",
	Throttled:           "throttled",
	ShedOverload:        "shed_overload",
	ShedQueueFull:       "shed_queue_full",
	Expired:             "expired",
	RejectedDrain:       "rejected_drain",
	SubmitErrors:        "submit_errors",
	Removed:             "removed",
	DrainFlushed:        "drain_flushed",
	Reserved:            "reserved",
	ReservationExpired:  "reservation_expired",
	ReservationReleased: "reservation_released",
	ReservationConsumed: "reservation_consumed",
}

func (ServerCounter) names() []string { return serverNames[:] }

// ServerStats is the serving layer's counters.
type ServerStats = Counters[ServerCounter]
