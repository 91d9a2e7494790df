package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/scenario.golden from this run")

// deterministicReport runs the scenario and clears the report's
// wall-clock fields; everything left is simulated time.
func deterministicReport(t *testing.T, cfg scenarioConfig) fedReport {
	t.Helper()
	cfg.Logf = func(string, ...any) {}
	o, err := runScenario(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := o.rep
	rep.P50RouteMs, rep.P99RouteMs, rep.WallSeconds = 0, 0, 0
	return rep
}

// TestScenarioIsAFunctionOfItsFlags runs the chaos scenario twice with
// the same flags. With the wall-clock fields cleared, the two reports
// must be equal: every other duration is simulated time, and every
// round, chaos event and submission runs in order on one virtual clock.
func TestScenarioIsAFunctionOfItsFlags(t *testing.T) {
	cfg := scenarioConfig{
		Members:  3,
		Nodes:    16,
		Jobs:     30,
		Overload: 4,
		Seed:     42,
		Rate:     60,
		MaxMTTR:  5 * time.Second,
	}
	first, second := deterministicReport(t, cfg), deterministicReport(t, cfg)
	if first.Routed == 0 || first.MigrationsCompleted == 0 || first.MTTRSeconds == 0 {
		t.Fatalf("the scenario did not run its phases: %+v", first)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("same flags, different reports:\n%+v\n%+v", first, second)
	}
}

// TestScenarioGolden pins the report of the chaos gate's run (the
// command's default flags, seed 42) without its wall-clock fields in
// testdata/scenario.golden: when a fault lands, what the detector
// confirmed, how many apps failed over, drained and migrated, and the
// final audit. Refresh with
// `go test -run TestScenarioGolden ./cmd/medea-fed -update`.
func TestScenarioGolden(t *testing.T) {
	rep := deterministicReport(t, scenarioConfig{
		Members:  3,
		Nodes:    16,
		Jobs:     120,
		Overload: 4,
		Seed:     42,
		Rate:     60,
		MaxMTTR:  5 * time.Second,
	})
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got := string(enc) + "\n"
	golden := filepath.Join("testdata", "scenario.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create it): %v", err)
	}
	if string(want) != got {
		t.Errorf("scenario.golden drifted (intentional changes: re-run with -update):\n--- golden ---\n%s--- got ---\n%s", want, got)
	}
}

// TestScenarioBenchMatchesGolden holds the committed BENCH_fed.json,
// which `medea-fed -seed 42 -gate -out BENCH_fed.json` writes, to
// scenario.golden: every field but the wall-clock ones must agree, so a
// change that moves the scenario's counts re-records the file with the
// golden.
func TestScenarioBenchMatchesGolden(t *testing.T) {
	read := func(name string) fedReport {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		var rep fedReport
		if err := dec.Decode(&rep); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rep.P50RouteMs, rep.P99RouteMs, rep.WallSeconds = 0, 0, 0
		return rep
	}
	bench := read(filepath.Join("..", "..", "BENCH_fed.json"))
	golden := read(filepath.Join("testdata", "scenario.golden"))
	if !reflect.DeepEqual(bench, golden) {
		t.Errorf("BENCH_fed.json and scenario.golden disagree (re-record the file with `go run ./cmd/medea-fed -seed 42 -gate -out BENCH_fed.json`):\n--- BENCH_fed.json ---\n%+v\n--- scenario.golden ---\n%+v", bench, golden)
	}
}
