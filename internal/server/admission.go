package server

import "sync"

// AdmissionConfig sets the overload watermarks of the submission
// backlog. The high watermark starts rejecting at or above it and the
// low watermark resumes admitting only at or below it. The gap is
// hysteresis: without it, a queue hovering at the boundary would flap
// between admit and reject on every request. A zero high watermark
// disables admission control; a zero low watermark defaults to half the
// high one.
type AdmissionConfig struct {
	// QueueHigh/QueueLow bound the total submission backlog: the bounded
	// submit queue plus the core's pending and repair queues.
	QueueHigh, QueueLow int
}

// Load is the overload signal the admission controller evaluates: the
// backpressure from the scheduling loop to the accept path.
type Load struct {
	// Queue is the total submission backlog (server queue + core pending
	// + pending repairs).
	Queue int
}

// Admission is the watermark-based admission controller. It rejects
// fast — a constant-time check before any queueing — so an overloaded
// scheduler degrades into cheap 429s instead of collapsing latency for
// everyone. Hysteresis keeps the decision stable at the boundary.
type Admission struct {
	cfg AdmissionConfig

	mu sync.Mutex
	// shedding is set when the backlog reaches the high watermark and
	// cleared only when it falls to the low one.
	shedding bool
}

// NewAdmission builds an admission controller.
func NewAdmission(cfg AdmissionConfig) *Admission {
	if cfg.QueueLow <= 0 {
		cfg.QueueLow = cfg.QueueHigh / 2
	}
	return &Admission{cfg: cfg}
}

// Admit evaluates the load against the watermarks. It returns ok=false
// with the rejecting dimension's name, "queue", when the request should
// be shed.
func (a *Admission) Admit(l Load) (ok bool, reason string) {
	if a.cfg.QueueHigh <= 0 {
		return true, ""
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.shedding {
		a.shedding = l.Queue > a.cfg.QueueLow
	} else {
		a.shedding = l.Queue >= a.cfg.QueueHigh
	}
	if a.shedding {
		return false, "queue"
	}
	return true, ""
}

// Shedding reports whether the controller is currently rejecting, and
// on which dimensions.
func (a *Admission) Shedding() (bool, []string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.shedding {
		return true, []string{"queue"}
	}
	return false, nil
}
