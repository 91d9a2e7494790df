package constraint

import (
	"math"
	"testing"
)

// TestParsePaperExamples parses the four constraints spelled out in §4.2.
func TestParsePaperExamples(t *testing.T) {
	// Caf = {storm, {hb ∧ mem, 1, ∞}, node}
	caf := MustParse("{storm, {hb & mem, 1, inf}, node}")
	a, ok := caf.Simple()
	if !ok {
		t.Fatal("Caf should be simple")
	}
	if !a.IsAffinity() || !a.Subject.Equal(E("storm")) || !a.Target.Equal(E("hb", "mem")) || a.Group != Node {
		t.Errorf("Caf parsed wrong: %+v", a)
	}

	// Caf' with appID namespace.
	cafP := MustParse("{appID:0023 & storm, {appID:0023 & hb & mem, 1, inf}, node}")
	a, _ = cafP.Simple()
	if !a.Subject.Equal(E("appID:0023", "storm")) {
		t.Errorf("Caf' subject = %v", a.Subject)
	}

	// Caa = {storm, {hb, 0, 0}, upgrade_domain}
	caa := MustParse("{storm, {hb, 0, 0}, upgrade_domain}")
	a, _ = caa.Simple()
	if !a.IsAntiAffinity() || a.Group != UpgradeDomain {
		t.Errorf("Caa parsed wrong: %+v", a)
	}

	// Cca = {storm, {spark, 0, 5}, rack}
	cca := MustParse("{storm, {spark, 0, 5}, rack}")
	a, _ = cca.Simple()
	if a.Min != 0 || a.Max != 5 || a.Group != Rack {
		t.Errorf("Cca parsed wrong: %+v", a)
	}

	// Ccg = {spark, {spark, 3, 10}, rack}
	ccg := MustParse("{spark, {spark, 3, 10}, rack}")
	a, _ = ccg.Simple()
	if !a.SelfTargeting() || a.Min != 3 || a.Max != 10 {
		t.Errorf("Ccg parsed wrong: %+v", a)
	}
}

func TestParseWeight(t *testing.T) {
	c := MustParse("2.5: {spark, {spark, 3, 10}, rack}")
	if c.Weight != 2.5 {
		t.Errorf("Weight = %v, want 2.5", c.Weight)
	}
	// Namespaced tags must not be mistaken for weights.
	c = MustParse("{appID:7 & a, {b, 0, 0}, node}")
	if c.Weight != 0 {
		t.Errorf("Weight = %v, want 0 (unset)", c.Weight)
	}
}

func TestParseDNF(t *testing.T) {
	c := MustParse("{a, {b, 0, 0}, node} & {a, {c, 1, inf}, rack} | {a, {d, 0, 3}, rack}")
	if len(c.Terms) != 2 {
		t.Fatalf("terms = %d, want 2", len(c.Terms))
	}
	if len(c.Terms[0]) != 2 || len(c.Terms[1]) != 1 {
		t.Errorf("term sizes = %d,%d, want 2,1", len(c.Terms[0]), len(c.Terms[1]))
	}
}

func TestParseRoundTrip(t *testing.T) {
	inputs := []string{
		"{storm, {hb&mem, 1, inf}, node}",
		"{spark, {spark, 3, 10}, rack}",
		"2.5: {a, {b, 0, 0}, upgrade_domain}",
		"{a, {b, 0, 0}, node} | {a, {b, 1, inf}, rack}",
	}
	for _, in := range inputs {
		c := MustParse(in)
		c2, err := Parse(c.String())
		if err != nil {
			t.Fatalf("re-parse of %q (%q): %v", in, c.String(), err)
		}
		if c.String() != c2.String() {
			t.Errorf("round trip %q -> %q", c.String(), c2.String())
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"storm, hb, node",
		"{storm, {hb, 1}, node}",             // missing cmax
		"{storm, {hb, x, 2}, node}",          // bad cmin
		"{storm, {hb, 1, y}, node}",          // bad cmax
		"{storm, {hb, 3, 2}, node}",          // min>max
		"{storm, {hb, 1, inf}, }",            // empty group (validate)
		"{storm, {hb, 1, inf}, node",         // unbalanced
		"abc: {storm, {hb, 1, inf}, node}",   // bad weight
		"-1: {storm, {hb, 1, inf}, node}",    // negative weight
		"NaN: {storm, {hb, 1, inf}, node}",   // non-finite weight
		"Inf: {storm, {hb, 1, inf}, node}",   // non-finite weight
		"-Inf: {storm, {hb, 1, inf}, node}",  // non-finite weight
		"{, {hb, 1, inf}, node}",             // empty subject
		"{storm, {hb, 1, inf}, node} | ",     // empty term
		"{storm, {hb, 1, inf}, node, extra}", // 4 fields
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

// TestValidateRefusesNonFiniteWeight: a constraint built without Parse
// goes through Validate too, which AddOperator and Application.Validate
// call.
func TestValidateRefusesNonFiniteWeight(t *testing.T) {
	a := AntiAffinity(E("a"), E("b"), Node)
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := Weighted(a, w).Validate(); err == nil {
			t.Errorf("weight %v validated, want an error", w)
		}
	}
	if err := Weighted(a, math.MaxFloat64).Validate(); err != nil {
		t.Errorf("weight %v: %v", math.MaxFloat64, err)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse should panic on bad input")
		}
	}()
	MustParse("not a constraint")
}
