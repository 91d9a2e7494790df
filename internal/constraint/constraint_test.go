package constraint

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestSugarForms(t *testing.T) {
	af := Affinity(E("storm"), E("hb", "mem"), Node)
	if !af.IsAffinity() || af.IsAntiAffinity() {
		t.Errorf("Affinity classification wrong: %+v", af)
	}
	aa := AntiAffinity(E("storm"), E("hb"), UpgradeDomain)
	if !aa.IsAntiAffinity() || aa.IsAffinity() {
		t.Errorf("AntiAffinity classification wrong: %+v", aa)
	}
	ca := MaxCardinality(E("storm"), E("spark"), 5, Rack)
	if ca.IsAffinity() || ca.IsAntiAffinity() {
		t.Errorf("cardinality misclassified: %+v", ca)
	}
	if ca.Min != 0 || ca.Max != 5 {
		t.Errorf("MaxCardinality bounds = (%d,%d)", ca.Min, ca.Max)
	}
}

func TestAtomSatisfied(t *testing.T) {
	a := CardinalityRange(E("s"), E("t"), 3, 10, Rack)
	for gamma, want := range map[int]bool{2: false, 3: true, 10: true, 11: false} {
		if got := a.Satisfied(gamma); got != want {
			t.Errorf("Satisfied(%d) = %v, want %v", gamma, got, want)
		}
	}
	inf := Affinity(E("s"), E("t"), Node)
	if !inf.Satisfied(math.MaxInt32) {
		t.Error("affinity should accept any positive gamma")
	}
	if inf.Satisfied(0) {
		t.Error("affinity requires at least one target")
	}
}

// TestViolationExtent checks Equation 8 and the paper's footnote-3 example:
// a constraint of no more than 5 containers violated by placing 10 is a
// more extensive violation than placing 6.
func TestViolationExtent(t *testing.T) {
	a := MaxCardinality(E("hb"), E("hb"), 5, Rack)
	v6 := a.ViolationExtent(6)
	v10 := a.ViolationExtent(10)
	if v6 <= 0 || v10 <= v6 {
		t.Errorf("extent ordering wrong: v6=%v v10=%v", v6, v10)
	}
	if got := a.ViolationExtent(5); got != 0 {
		t.Errorf("extent at bound = %v, want 0", got)
	}
	// Anti-affinity (0,0) divides by clamped 1.
	aa := AntiAffinity(E("a"), E("b"), Node)
	if got := aa.ViolationExtent(2); got != 2 {
		t.Errorf("anti-affinity extent = %v, want 2", got)
	}
	// Min side.
	rng := CardinalityRange(E("a"), E("b"), 4, 10, Rack)
	if got := rng.ViolationExtent(2); got != 0.5 {
		t.Errorf("min-side extent = %v, want 0.5", got)
	}
}

func TestAtomValidate(t *testing.T) {
	good := Affinity(E("a"), E("b"), Node)
	if err := good.Validate(); err != nil {
		t.Errorf("valid atom rejected: %v", err)
	}
	bad := []Atom{
		{Target: E("b"), Min: 0, Max: 1, Group: Node},                   // empty subject
		{Subject: E("a"), Min: 0, Max: 1, Group: Node},                  // empty target
		{Subject: E("a"), Target: E("b"), Min: -1, Max: 1, Group: Node}, // neg min
		{Subject: E("a"), Target: E("b"), Min: 2, Max: 1, Group: Node},  // min>max
		{Subject: E("a"), Target: E("b"), Min: 0, Max: 1},               // empty group
	}
	for i, a := range bad {
		if err := a.Validate(); err == nil {
			t.Errorf("bad atom %d accepted: %+v", i, a)
		}
	}
}

func TestSelfTargeting(t *testing.T) {
	if !CardinalityRange(E("spark"), E("spark"), 3, 10, Rack).SelfTargeting() {
		t.Error("self-targeting not detected")
	}
	if Affinity(E("storm"), E("hb"), Node).SelfTargeting() {
		t.Error("non-self-targeting misdetected")
	}
}

func TestCompoundValidate(t *testing.T) {
	c := Or(
		[]Atom{Affinity(E("a"), E("b"), Node)},
		[]Atom{AntiAffinity(E("a"), E("b"), Rack), Affinity(E("a"), E("c"), Rack)},
	)
	if err := c.Validate(); err != nil {
		t.Errorf("valid compound rejected: %v", err)
	}
	if _, ok := c.Simple(); ok {
		t.Error("compound misreported as simple")
	}
	if got := len(c.Atoms()); got != 3 {
		t.Errorf("Atoms count = %d, want 3", got)
	}
	if err := (Constraint{}).Validate(); err == nil {
		t.Error("empty constraint accepted")
	}
	if err := (Constraint{Terms: [][]Atom{{}}}).Validate(); err == nil {
		t.Error("empty term accepted")
	}
}

func TestEffectiveWeight(t *testing.T) {
	if got := New(Affinity(E("a"), E("b"), Node)).EffectiveWeight(); got != 1 {
		t.Errorf("default weight = %v", got)
	}
	if got := Weighted(Affinity(E("a"), E("b"), Node), 2.5).EffectiveWeight(); got != 2.5 {
		t.Errorf("explicit weight = %v", got)
	}
}

// Property: extent is zero exactly when the cardinality test passes.
func TestExtentSatisfiedDuality(t *testing.T) {
	f := func(minRaw, maxRaw uint8, gammaRaw uint8) bool {
		lo := int(minRaw % 20)
		hi := lo + int(maxRaw%20)
		gamma := int(gammaRaw % 40)
		a := CardinalityRange(E("s"), E("t"), lo, hi, Node)
		return (a.ViolationExtent(gamma) == 0) == a.Satisfied(gamma)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAtomString(t *testing.T) {
	a := Affinity(E("storm"), E("hb", "mem"), Node)
	if got := a.String(); got != "{storm, {hb&mem, 1, inf}, node}" {
		t.Errorf("String = %q", got)
	}
}

// TestStringMatchesFmt pins the hand-built String methods to the fmt
// renderings they replaced: schedulers deduplicate constraints by this
// text, so it may not change by a byte.
func TestStringMatchesFmt(t *testing.T) {
	atoms := []Atom{
		Affinity(E("storm"), E("mem", "hb"), Node),
		AntiAffinity(E("b", "a"), E("b", "a"), Rack),
		CardinalityRange(E("x"), Expr{}, 2, 7, "zone"),
	}
	for _, a := range atoms {
		maxStr := fmt.Sprint(a.Max)
		if a.Max == Unbounded {
			maxStr = "inf"
		}
		if want := fmt.Sprintf("{%s, {%s, %d, %s}, %s}", a.Subject, a.Target, a.Min, maxStr, a.Group); a.String() != want {
			t.Errorf("atom: got %q, want %q", a.String(), want)
		}
	}
	for _, w := range []float64{-1, 0, 0.5, 1, 2.5, 100, 1e6, 1e21, 1.0 / 3, 1e-7} {
		c := Constraint{Terms: [][]Atom{{atoms[0], atoms[1]}, {atoms[2]}}, Weight: w}
		want := atoms[0].String() + " & " + atoms[1].String() + " | " + atoms[2].String()
		if w > 0 && w != 1 {
			want = fmt.Sprintf("%g: %s", w, want)
		}
		if c.String() != want {
			t.Errorf("weight %v: got %q, want %q", w, c.String(), want)
		}
	}
}
