package federation

import (
	"testing"
	"time"
)

var dT0 = time.Unix(30000, 0).UTC()

// feed delivers n regular heartbeats at the given cadence, returning the
// time of the last one.
func feed(d *Detector, start time.Time, n int, every time.Duration) time.Time {
	now := start
	for i := 0; i < n; i++ {
		d.Heartbeat(now)
		now = now.Add(every)
	}
	return now.Add(-every)
}

// TestDetectorStaysAliveOnRegularHeartbeats: steady probes keep the
// member Alive with phi near zero.
func TestDetectorStaysAliveOnRegularHeartbeats(t *testing.T) {
	d := NewDetector()
	last := feed(d, dT0, 10, 50*time.Millisecond)
	if st := d.State(last); st != Alive {
		t.Fatalf("state %v after regular heartbeats, want alive", st)
	}
	if phi := d.Phi(last.Add(10 * time.Millisecond)); phi > 1 {
		t.Fatalf("phi %.2f just after a heartbeat, want ~0", phi)
	}
}

// TestDetectorConfirmsDeathOnConsecutiveMisses: sustained silence walks
// the detector Alive → Suspect → Dead, and Dead latches until a real
// heartbeat arrives.
func TestDetectorConfirmsDeathOnConsecutiveMisses(t *testing.T) {
	d := NewDetector()
	last := feed(d, dT0, 10, 50*time.Millisecond)

	// Probe rounds keep firing every 50ms; the member never answers.
	now := last
	sawSuspect := false
	for i := 1; i <= 3; i++ {
		now = now.Add(50 * time.Millisecond)
		d.Miss(now)
		st := d.State(now)
		if st == Suspect {
			sawSuspect = true
		}
		if i < 3 && st == Dead {
			t.Fatalf("dead after only %d misses, want >= 3", i)
		}
	}
	if st := d.State(now); st != Dead {
		t.Fatalf("state %v after 3 consecutive misses with high phi, want dead", st)
	}
	if !sawSuspect {
		t.Fatal("never passed through suspect on the way to dead")
	}
	// Dead is sticky: more silence cannot resurrect it, only a heartbeat.
	if st := d.State(now.Add(time.Second)); st != Dead {
		t.Fatal("dead did not latch")
	}
	d.Heartbeat(now.Add(time.Second))
	if st := d.State(now.Add(time.Second)); st != Alive {
		t.Fatal("heartbeat did not resurrect a dead member")
	}
}

// TestDetectorNeverKillsSlowMember is the anti-flap guarantee: a member
// answering every other probe (slow, Byzantine, but alive) may be
// suspected, never confirmed dead — misses are never consecutive enough.
func TestDetectorNeverKillsSlowMember(t *testing.T) {
	d := NewDetector()
	last := feed(d, dT0, 6, 50*time.Millisecond)

	now := last
	for i := 0; i < 50; i++ {
		now = now.Add(50 * time.Millisecond)
		if i%2 == 0 {
			d.Miss(now)
		} else {
			d.Heartbeat(now)
		}
		if st := d.State(now); st == Dead {
			t.Fatalf("round %d: slow-but-alive member confirmed dead", i)
		}
	}
}

// TestDetectorSingleSlowProbeOnlySuspects: one long stall (phi spikes)
// with a heartbeat right after must not kill the member — and the stall
// widens the learned distribution, so the same silence later is judged
// more leniently.
func TestDetectorSingleSlowProbeOnlySuspects(t *testing.T) {
	d := NewDetector()
	last := feed(d, dT0, 10, 50*time.Millisecond)

	// One probe round times out, the silence stretching to 4 intervals:
	// phi is far beyond phiDead, but a single miss cannot confirm death.
	stall := last.Add(200 * time.Millisecond)
	d.Miss(stall)
	if phi := d.Phi(stall); phi < phiDead {
		t.Fatalf("phi %.2f after a 4-interval stall, want beyond dead threshold %v", phi, phiDead)
	}
	if st := d.State(stall); st != Suspect {
		t.Fatalf("state %v after one slow probe, want suspect (never dead)", st)
	}
	d.Heartbeat(stall.Add(10 * time.Millisecond))
	if st := d.State(stall.Add(10 * time.Millisecond)); st != Alive {
		t.Fatalf("state %v after recovery heartbeat, want alive", st)
	}
}

// TestDetectorColdStartFallback: before the window has enough samples
// phi is unavailable, so death falls back to pure miss counting at twice
// the confirmation bar.
func TestDetectorColdStartFallback(t *testing.T) {
	d := NewDetector()
	d.Heartbeat(dT0) // one sample: below detectorMinSamples
	now := dT0
	for i := 1; i <= 5; i++ {
		now = now.Add(50 * time.Millisecond)
		d.Miss(now)
		if st := d.State(now); st == Dead {
			t.Fatalf("cold detector dead after %d misses, want >= 6", i)
		}
	}
	now = now.Add(50 * time.Millisecond)
	d.Miss(now)
	if st := d.State(now); st != Dead {
		t.Fatalf("cold detector state %v after 6 misses, want dead", st)
	}
}
