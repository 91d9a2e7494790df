package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	tests := []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {75, 4},
	}
	for _, tt := range tests {
		if got := Percentile(xs, tt.p); got != tt.want {
			t.Errorf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("single sample p99 = %v", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile not NaN")
	}
	// Interpolation.
	if got := Percentile([]float64{0, 10}, 50); got != 5 {
		t.Errorf("interpolated median = %v, want 5", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestMeanStddevCV(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Stddev(xs); got != 2 {
		t.Errorf("Stddev = %v", got)
	}
	if got := CV(xs); got != 0.4 {
		t.Errorf("CV = %v", got)
	}
	if got := CV([]float64{0, 0}); got != 0 {
		t.Errorf("CV of zeros = %v", got)
	}
}

func TestBox(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(i)
	}
	b := Box(xs)
	if b.Median != 50 || b.P25 != 25 || b.P75 != 75 || b.P5 != 5 || b.P99 != 99 {
		t.Errorf("Box = %+v", b)
	}
	if !strings.Contains(b.String(), "50.0") {
		t.Errorf("String = %q", b.String())
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{3, 1, 2})
	if len(pts) != 3 || pts[0].X != 1 || pts[2].F != 1 {
		t.Errorf("CDF = %+v", pts)
	}
	if pts[0].F <= 0 || pts[1].F != 2.0/3 {
		t.Errorf("CDF fractions = %+v", pts)
	}
	if CDF(nil) != nil {
		t.Error("empty CDF should be nil")
	}
}

func TestCDFAt(t *testing.T) {
	pts := CDFAt([]float64{1, 2, 3, 4}, []float64{0, 2, 5})
	want := []float64{0, 0.5, 1}
	for i, p := range pts {
		if p.F != want[i] {
			t.Errorf("CDFAt[%d] = %v, want %v", i, p.F, want[i])
		}
	}
}

func TestDurations(t *testing.T) {
	out := Durations([]time.Duration{time.Second, 500 * time.Millisecond})
	if out[0] != 1 || out[1] != 0.5 {
		t.Errorf("Durations = %v", out)
	}
}

func TestTable(t *testing.T) {
	tab := NewTable("Demo", "name", "value")
	tab.AddRow("alpha", 3.14159)
	tab.AddRow("b", 42*time.Millisecond)
	tab.AddRow("c", "str")
	s := tab.String()
	if !strings.Contains(s, "Demo") || !strings.Contains(s, "3.14") || !strings.Contains(s, "42ms") {
		t.Errorf("table render:\n%s", s)
	}
	if tab.NumRows() != 3 || len(tab.Rows()) != 3 {
		t.Errorf("NumRows = %d", tab.NumRows())
	}
}

// TestCounterNames: every value of each enum, up to its last constant,
// has a name of its own, so Snapshot and Table cover the whole layer.
func TestCounterNames(t *testing.T) {
	for _, layer := range []struct {
		names []string
		last  int
	}{
		{PipelineCounter(0).names(), int(BreakerResets)},
		{ServerCounter(0).names(), int(ReservationConsumed)},
		{FedCounter(0).names(), int(RollingRestarts)},
	} {
		if len(layer.names) != layer.last+1 {
			t.Errorf("%d names for %d counters", len(layer.names), layer.last+1)
		}
		seen := make(map[string]bool)
		for i, name := range layer.names {
			if name == "" || seen[name] {
				t.Errorf("counter %d: name %q empty or repeated", i, name)
			}
			seen[name] = true
		}
	}
}

func TestCounters(t *testing.T) {
	var s FedStats
	s.Add(Routed, 1)
	s.Add(Routed, 2)
	s.Add(RollingRestarts, 1)
	if s.Routed() != 3 || s.Get(RollingRestarts) != 1 || s.Spillovers() != 0 {
		t.Fatalf("routed=%d rolling=%d spillovers=%d, want 3/1/0", s.Routed(), s.Get(RollingRestarts), s.Spillovers())
	}
	snap := s.Snapshot()
	if len(snap) != len(fedNames) || snap["routed"] != 3 || snap["rolling_restarts"] != 1 {
		t.Fatalf("snapshot %v", snap)
	}
	tab := s.Table("fed")
	if rows := tab.Rows(); len(rows) != len(fedNames) || rows[0][0] != "routed" || rows[0][1] != "3" {
		t.Fatalf("table:\n%s", tab)
	}

	var p PipelineStats
	p.Record(PanicsRecovered, "boom")
	p.RecordTransition(BreakerEvent{From: "closed", To: "open"})
	p.RecordTransition(BreakerEvent{From: "half-open", To: "open"})
	p.RecordTransition(BreakerEvent{From: "half-open", To: "closed"})
	if p.Get(PanicsRecovered) != 1 || p.Last(PanicsRecovered) != "boom" || p.Last(ValidationRejects) != "" {
		t.Fatalf("panics=%d last=%q", p.Get(PanicsRecovered), p.Last(PanicsRecovered))
	}
	if p.Get(BreakerTrips) != 1 || p.Get(BreakerReopens) != 1 || p.Get(BreakerResets) != 1 || len(p.Events()) != 3 {
		t.Fatalf("trips=%d reopens=%d resets=%d events=%v",
			p.Get(BreakerTrips), p.Get(BreakerReopens), p.Get(BreakerResets), p.Events())
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotone(t *testing.T) {
	f := func(raw []float64, aRaw, bRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		a, b := float64(aRaw%101), float64(bRaw%101)
		if a > b {
			a, b = b, a
		}
		pa, pb := Percentile(xs, a), Percentile(xs, b)
		lo, hi := Percentile(xs, 0), Percentile(xs, 100)
		return pa <= pb+1e-9 && pa >= lo-1e-9 && pb <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: CDF is non-decreasing and ends at 1.
func TestCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) {
				xs = append(xs, x)
			}
		}
		pts := CDF(xs)
		if len(xs) == 0 {
			return pts == nil
		}
		prev := 0.0
		for _, p := range pts {
			if p.F < prev {
				return false
			}
			prev = p.F
		}
		return math.Abs(pts[len(pts)-1].F-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
