package server

import (
	"sync"
	"testing"
)

// TestWatermarkHysteresisNoFlapping: a queue oscillating just around the
// high watermark must not flap between admit and reject — once shedding
// starts at the high watermark it continues until the metric falls to
// the low one.
func TestWatermarkHysteresisNoFlapping(t *testing.T) {
	a := NewAdmission(AdmissionConfig{QueueHigh: 100, QueueLow: 50})

	if ok, _ := a.Admit(Load{Queue: 99}); !ok {
		t.Fatal("below high watermark: must admit")
	}
	if ok, reason := a.Admit(Load{Queue: 100}); ok || reason != "queue" {
		t.Fatalf("at high watermark: must shed on queue, got ok=%v reason=%q", ok, reason)
	}
	// The boundary regime: the queue hovers between 60 and 99 — above
	// the low watermark, below the high one. Every decision must remain
	// a rejection; a single admit here is a flap.
	for q := 99; q >= 51; q-- {
		if ok, _ := a.Admit(Load{Queue: q}); ok {
			t.Fatalf("queue %d (between low 50 and high 100) admitted while shedding: hysteresis flap", q)
		}
	}
	if ok, _ := a.Admit(Load{Queue: 50}); !ok {
		t.Fatal("at low watermark: must resume admitting")
	}
	// And back up: admits all the way until high is reached again.
	for q := 51; q <= 99; q++ {
		if ok, _ := a.Admit(Load{Queue: q}); !ok {
			t.Fatalf("queue %d (below high 100) rejected while not shedding: hysteresis flap", q)
		}
	}
	if ok, _ := a.Admit(Load{Queue: 100}); ok {
		t.Fatal("at high watermark again: must shed")
	}
}

// TestWatermarkDimensionsIndependent: each dimension keeps its own
// hysteresis state; one dimension recovering does not mask another still
// in the red, and the reported reason names a dimension actually
// shedding.
func TestWatermarkDimensionsIndependent(t *testing.T) {
	a := NewAdmission(AdmissionConfig{QueueHigh: 10, QueueLow: 5, LagHigh: 100, LagLow: 50})

	// Trip both dimensions.
	if ok, _ := a.Admit(Load{Queue: 10, JournalLag: 100}); ok {
		t.Fatal("both dimensions at high: must shed")
	}
	// Queue recovers to its low watermark; lag stays in the boundary
	// band. Still shedding — on lag.
	ok, reason := a.Admit(Load{Queue: 5, JournalLag: 70})
	if ok {
		t.Fatal("lag still above its low watermark: must shed")
	}
	if reason != "journal-lag" {
		t.Fatalf("reason = %q, want journal-lag (queue recovered)", reason)
	}
	// Both recovered.
	if ok, _ := a.Admit(Load{Queue: 5, JournalLag: 50}); !ok {
		t.Fatal("both dimensions at low: must admit")
	}
}

// TestZeroHighWatermarkDisablesDimension: an unset dimension never
// sheds.
func TestZeroHighWatermarkDisablesDimension(t *testing.T) {
	a := NewAdmission(AdmissionConfig{QueueHigh: 10, QueueLow: 5})
	if ok, _ := a.Admit(Load{Queue: 0, JournalLag: 1 << 30}); !ok {
		t.Fatal("disabled dimensions must not shed")
	}
}

// TestDefaultLowWatermark: an unset low watermark defaults to half the
// high one.
func TestDefaultLowWatermark(t *testing.T) {
	a := NewAdmission(AdmissionConfig{QueueHigh: 100})
	if ok, _ := a.Admit(Load{Queue: 100}); ok {
		t.Fatal("at high: must shed")
	}
	if ok, _ := a.Admit(Load{Queue: 51}); ok {
		t.Fatal("above default low (50): must keep shedding")
	}
	if ok, _ := a.Admit(Load{Queue: 50}); !ok {
		t.Fatal("at default low: must resume")
	}
}

// TestAdmissionConcurrent exercises the controller under -race; the
// decision sequence seen by each goroutine must still be flap-free in
// the boundary band once shedding is globally observed.
func TestAdmissionConcurrent(t *testing.T) {
	a := NewAdmission(AdmissionConfig{QueueHigh: 100, QueueLow: 50})
	a.Admit(Load{Queue: 100}) // trip
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				// Stay in the boundary band: must always reject.
				if ok, _ := a.Admit(Load{Queue: 60 + i%40}); ok {
					t.Error("admit inside boundary band while shedding")
					return
				}
			}
		}()
	}
	wg.Wait()
	shedding, dims := a.Shedding()
	if !shedding || len(dims) != 1 || dims[0] != "queue" {
		t.Fatalf("Shedding() = %v %v, want true [queue]", shedding, dims)
	}
}
