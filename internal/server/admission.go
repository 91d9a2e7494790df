package server

import "sync"

// AdmissionConfig sets the overload watermarks of the two dimensions,
// backlog and journal lag. Each has a high watermark (start rejecting at
// or above it) and a low watermark (resume admitting only at or below
// it). The gap is hysteresis: without it, a queue hovering at the
// boundary would flap between admit and reject on every request. A zero
// high watermark disables the dimension; a zero low watermark defaults to
// half the high one.
type AdmissionConfig struct {
	// QueueHigh/QueueLow bound the total submission backlog: the bounded
	// submit queue plus the core's pending and repair queues.
	QueueHigh, QueueLow int
	// LagHigh/LagLow bound the journal replay tail (records since the
	// last checkpoint) — durability backpressure.
	LagHigh, LagLow int
}

func low(high, low int) int {
	if low > 0 {
		return low
	}
	return high / 2
}

// Load is the overload signal the admission controller evaluates: the
// backpressure from the scheduling loop to the accept path.
type Load struct {
	// Queue is the total submission backlog (server queue + core pending
	// + pending repairs).
	Queue int
	// JournalLag is the WAL replay tail length.
	JournalLag int
}

// Admission is the watermark-based admission controller. It rejects
// fast — a constant-time check before any queueing — so an overloaded
// scheduler degrades into cheap 429s instead of collapsing latency for
// everyone. Per-dimension hysteresis keeps the decision stable at the
// boundary.
type Admission struct {
	cfg AdmissionConfig

	mu sync.Mutex
	// shedding tracks, per dimension, whether the controller is currently
	// rejecting: set when the metric reaches the high watermark, cleared
	// only when it falls to the low one.
	shedding map[string]bool
}

// NewAdmission builds an admission controller.
func NewAdmission(cfg AdmissionConfig) *Admission {
	return &Admission{cfg: cfg, shedding: make(map[string]bool)}
}

// dimension evaluates one watermark pair with hysteresis; must be called
// with a.mu held. Returns true when the dimension currently rejects.
func (a *Admission) dimension(name string, value, high, lowWM int) bool {
	if high <= 0 {
		return false
	}
	if a.shedding[name] {
		if value <= low(high, lowWM) {
			a.shedding[name] = false
			return false
		}
		return true
	}
	if value >= high {
		a.shedding[name] = true
		return true
	}
	return false
}

// Admit evaluates the load against the watermarks. It returns ok=false
// with the rejecting dimension's name when the request should be shed.
// All dimensions are evaluated on every call so each one's hysteresis
// state stays current even while another is rejecting.
func (a *Admission) Admit(l Load) (ok bool, reason string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	queue := a.dimension("queue", l.Queue, a.cfg.QueueHigh, a.cfg.QueueLow)
	lag := a.dimension("journal-lag", l.JournalLag, a.cfg.LagHigh, a.cfg.LagLow)
	switch {
	case queue:
		return false, "queue"
	case lag:
		return false, "journal-lag"
	}
	return true, ""
}

// Shedding reports whether any dimension is currently rejecting, and
// which ones.
func (a *Admission) Shedding() (bool, []string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var dims []string
	for _, d := range []string{"queue", "journal-lag"} {
		if a.shedding[d] {
			dims = append(dims, d)
		}
	}
	return len(dims) > 0, dims
}
