package main

import (
	"reflect"
	"testing"
	"time"
)

// TestScenarioIsAFunctionOfItsFlags runs the chaos scenario twice with
// the same flags. With the wall-clock fields cleared, the two reports
// must be equal: every other duration is simulated time, and every
// round, chaos event and submission runs in order on one virtual clock.
func TestScenarioIsAFunctionOfItsFlags(t *testing.T) {
	run := func() fedReport {
		o, err := runScenario(scenarioConfig{
			Members:  3,
			Nodes:    16,
			Jobs:     30,
			Overload: 4,
			Seed:     42,
			Rate:     60,
			MaxMTTR:  5 * time.Second,
			Logf:     func(string, ...any) {},
		})
		if err != nil {
			t.Fatal(err)
		}
		rep := o.rep
		rep.P50RouteMs, rep.P99RouteMs, rep.WallSeconds = 0, 0, 0
		return rep
	}
	first, second := run(), run()
	if first.Routed == 0 || first.MigrationsCompleted == 0 || first.MTTRSeconds == 0 {
		t.Fatalf("the scenario did not run its phases: %+v", first)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("same flags, different reports:\n%+v\n%+v", first, second)
	}
}
