// Package federation adds a Medea-over-Medea layer: a fleet of member
// clusters — each a full journaled scheduler behind its serving API —
// fronted by a balancer that routes LRA submissions to the best member,
// spills over when a member sheds load, and fails applications over to
// survivors when a member cluster dies. The split mirrors the
// balancer/scout architecture sketched for federated Medea deployments:
// the scout learns each member's health and capacity from periodic
// probes; the balancer spends that knowledge on routing decisions.
package federation

import (
	"math"
	"time"
)

// DetectorState is a member's liveness verdict.
type DetectorState int

const (
	// Alive: heartbeats arriving as expected.
	Alive DetectorState = iota
	// Suspect: recent misses push phi past the suspicion threshold, but
	// death is not yet confirmed — the member is deprioritised for
	// routing, never failed over.
	Suspect
	// Dead: enough consecutive misses with high phi to confirm the member
	// is gone; failover may begin. A confirmed Dead is sticky until a
	// heartbeat actually arrives.
	Dead
)

func (s DetectorState) String() string {
	switch s {
	case Alive:
		return "alive"
	case Suspect:
		return "suspect"
	case Dead:
		return "dead"
	}
	return "unknown"
}

// The phi-accrual failure detector's thresholds.
const (
	// phiSuspect is the phi threshold for Suspect: odds of a false
	// suspicion about 1 in 10^3 per window under the learned arrival
	// distribution.
	phiSuspect = 3
	// phiDead is the phi threshold for Dead.
	phiDead = 12
	// ConfirmMisses is the number of *consecutive* missed probes also
	// required for Dead. Phi alone can spike on one long stall; requiring
	// consecutive misses keeps a slow-but-alive member from flapping into
	// failover.
	ConfirmMisses = 3
	// detectorWindow is how many heartbeat inter-arrival samples the
	// detector remembers.
	detectorWindow = 64
	// detectorMinSamples is how many samples must accumulate before phi is
	// trusted; below it the detector stays Alive unless misses alone reach
	// ConfirmMisses×2.
	detectorMinSamples = 3
)

// Detector is a phi-accrual failure detector (Hayashibara et al.) over
// one member's probe responses. Instead of a binary timeout it keeps a
// sliding window of heartbeat inter-arrival times and computes phi =
// -log10(P(heartbeat still pending after the observed silence)) under a
// normal fit of that window: phi grows continuously with the silence, so
// thresholds express *confidence* the member is gone, not a guess at a
// good timeout. Death additionally requires ConfirmMisses consecutive
// probe misses, so a single slow response — phi briefly high, then a
// heartbeat — can suspect a member but never kill it. The detector is
// not concurrency-safe; the scout serialises access.
type Detector struct {
	intervals []time.Duration // ring buffer of inter-arrival samples
	next      int             // ring write cursor
	filled    bool
	last      time.Time // last heartbeat arrival (zero = none yet)
	misses    int       // consecutive missed probes since last heartbeat
	dead      bool      // sticky Dead latch, set only by confirm
}

// NewDetector builds a detector.
func NewDetector() *Detector {
	return &Detector{intervals: make([]time.Duration, 0, detectorWindow)}
}

// Heartbeat records a successful probe response at now. It feeds the
// inter-arrival window, clears the consecutive-miss count and revives a
// Dead member.
func (d *Detector) Heartbeat(now time.Time) {
	if !d.last.IsZero() {
		if iv := now.Sub(d.last); iv > 0 {
			if len(d.intervals) < detectorWindow {
				d.intervals = append(d.intervals, iv)
			} else {
				d.intervals[d.next] = iv
				d.filled = true
			}
			d.next = (d.next + 1) % detectorWindow
		}
	}
	d.last = now
	d.misses = 0
	d.dead = false
}

// Miss records a failed or timed-out probe at now.
func (d *Detector) Miss(now time.Time) { d.misses++ }

// answered records that the member answered a request other than a
// probe: a sign of life that clears the consecutive-miss count. It
// feeds no inter-arrival sample (the window learns the probe cadence)
// and lifts no Dead latch (only a probe heartbeat revives a member).
func (d *Detector) answered() { d.misses = 0 }

// meanStd fits the inter-arrival window. The standard deviation is
// floored at a quarter of the mean: perfectly regular simulated probes
// would otherwise collapse std to ~0 and make phi explode on the first
// microsecond of jitter.
func (d *Detector) meanStd() (mean, std float64) {
	n := len(d.intervals)
	if n == 0 {
		return 0, 0
	}
	var sum float64
	for _, iv := range d.intervals {
		sum += float64(iv)
	}
	mean = sum / float64(n)
	var sq float64
	for _, iv := range d.intervals {
		diff := float64(iv) - mean
		sq += diff * diff
	}
	std = math.Sqrt(sq / float64(n))
	if floor := mean / 4; std < floor {
		std = floor
	}
	return mean, std
}

// Phi returns the suspicion level at now: -log10 of the probability that
// a live member would still be silent after now-lastHeartbeat, under the
// normal fit of its past inter-arrivals. 0 while too few samples exist.
func (d *Detector) Phi(now time.Time) float64 {
	if d.last.IsZero() || len(d.intervals) < detectorMinSamples {
		return 0
	}
	elapsed := float64(now.Sub(d.last))
	if elapsed <= 0 {
		return 0
	}
	mean, std := d.meanStd()
	// P(silence >= elapsed) for a normal inter-arrival: the Gaussian
	// upper tail via erfc.
	p := 0.5 * math.Erfc((elapsed-mean)/(std*math.Sqrt2))
	if p < 1e-100 {
		return 100 // cap: beyond any threshold, avoids -log10(0)
	}
	return -math.Log10(p)
}

// State returns the liveness verdict at now, and changes nothing. Dead
// requires BOTH phi beyond phiDead and ConfirmMisses consecutive misses,
// or a latch set by confirm that only a heartbeat clears; Suspect
// requires at least one miss plus phi beyond phiSuspect. With a cold
// window (fewer than detectorMinSamples heartbeats) phi is unavailable,
// so Dead falls back to pure miss counting at twice the confirmation
// bar.
func (d *Detector) State(now time.Time) DetectorState {
	if d.dead {
		return Dead
	}
	phi := d.Phi(now)
	cold := d.last.IsZero() || len(d.intervals) < detectorMinSamples
	if cold {
		if d.misses >= ConfirmMisses*2 {
			return Dead
		}
		if d.misses >= ConfirmMisses {
			return Suspect
		}
		return Alive
	}
	if d.misses >= ConfirmMisses && phi >= phiDead {
		return Dead
	}
	if d.misses >= 1 && phi >= phiSuspect {
		return Suspect
	}
	return Alive
}

// confirm latches Dead if the verdict at now is Dead, and reports whether
// this call set the latch: the one moment a death is confirmed. Only the
// probe round calls it, so a death is counted however many readers saw
// the verdict first.
func (d *Detector) confirm(now time.Time) bool {
	if d.dead || d.State(now) != Dead {
		return false
	}
	d.dead = true
	return true
}
