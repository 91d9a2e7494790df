package resource

import (
	"testing"
	"testing/quick"
)

func TestAddSub(t *testing.T) {
	a := New(2048, 2)
	b := New(1024, 1)
	if got := a.Add(b); got != New(3072, 3) {
		t.Errorf("Add = %v, want <3072MB,3c>", got)
	}
	if got := a.Sub(b); got != New(1024, 1) {
		t.Errorf("Sub = %v, want <1024MB,1c>", got)
	}
}

func TestFits(t *testing.T) {
	cap := New(4096, 4)
	tests := []struct {
		demand Vector
		want   bool
	}{
		{New(4096, 4), true},
		{New(4096, 5), false},
		{New(4097, 4), false},
		{New(0, 0), true},
		{New(1, 1), true},
	}
	for _, tt := range tests {
		if got := tt.demand.Fits(cap); got != tt.want {
			t.Errorf("%v.Fits(%v) = %v, want %v", tt.demand, cap, got, tt.want)
		}
	}
}

func TestDominantShare(t *testing.T) {
	cap := New(1000, 10)
	if got := New(500, 2).DominantShare(cap); got != 0.5 {
		t.Errorf("DominantShare = %v, want 0.5", got)
	}
	if got := New(100, 8).DominantShare(cap); got != 0.8 {
		t.Errorf("DominantShare = %v, want 0.8", got)
	}
	if got := (Vector{}).DominantShare(Vector{}); got != 0 {
		t.Errorf("DominantShare of zero capacity = %v, want 0", got)
	}
}

func TestString(t *testing.T) {
	for v, want := range map[Vector]string{
		{}:             "<0MB,0c>",
		New(2048, 1):   "<2048MB,1c>",
		New(1, 0):      "<1MB,0c>",
		ChiefProfile:   "<4096MB,1c>",
		New(-1024, -1): "<-1024MB,-1c>",
	} {
		if got := v.String(); got != want {
			t.Errorf("String(%#v) = %q, want %q", v, got, want)
		}
	}
}

func TestScalar(t *testing.T) {
	if got := New(1024, 1).Scalar(); got != 2048 {
		t.Errorf("Scalar = %d, want 2048", got)
	}
}

// Property: Add is commutative and associative; Sub inverts Add.
func TestAddProperties(t *testing.T) {
	comm := func(a, b Vector) bool { return a.Add(b) == b.Add(a) }
	if err := quick.Check(comm, nil); err != nil {
		t.Error(err)
	}
	assoc := func(a, b, c Vector) bool { return a.Add(b).Add(c) == a.Add(b.Add(c)) }
	if err := quick.Check(assoc, nil); err != nil {
		t.Error(err)
	}
	inv := func(a, b Vector) bool { return a.Add(b).Sub(b) == a }
	if err := quick.Check(inv, nil); err != nil {
		t.Error(err)
	}
}

// Property: a demand fits a capacity exactly when the capacity dominates
// it, component by component.
func TestFitsDominatesDuality(t *testing.T) {
	f := func(a, b Vector) bool {
		return a.Fits(b) == (b.MemoryMB >= a.MemoryMB && b.VCores >= a.VCores)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
