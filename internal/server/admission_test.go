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

// TestWatermarkDimensionsIndependent: the reported reason names the
// dimension shedding, and the backlog recovering to its low watermark
// resumes admission.
func TestWatermarkDimensionsIndependent(t *testing.T) {
	a := NewAdmission(AdmissionConfig{QueueHigh: 10, QueueLow: 5})

	if ok, reason := a.Admit(Load{Queue: 10}); ok || reason != "queue" {
		t.Fatalf("queue at high: must shed on queue, got ok=%v reason=%q", ok, reason)
	}
	if ok, _ := a.Admit(Load{Queue: 5}); !ok {
		t.Fatal("queue at low: must admit")
	}
}

// TestZeroHighWatermarkDisablesDimension: an unset dimension never
// sheds.
func TestZeroHighWatermarkDisablesDimension(t *testing.T) {
	a := NewAdmission(AdmissionConfig{})
	if ok, _ := a.Admit(Load{Queue: 1 << 30}); !ok {
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
