package dst

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var (
	updateGolden = flag.Bool("update", false, "rewrite testdata/trace.golden and testdata/counters.golden")
	traceDir     = flag.String("tracedir", "", "also write each golden seed's full trace to this directory")
)

// goldenSeeds is the pinned seed range; a seed whose trace is not
// byte-stable across the default build, GOMAXPROCS=1 and -race is
// dropped from the golden rather than compared loosely.
const goldenSeeds = 40

// TestBalancerTraceGolden pins the federation balancer's decisions and
// their order: the trace of a run carries every "[fed]" transition line
// the balancer logs, every submit / remove / migrate answer a client
// saw, and the audit counts, so the sha256 of a seed's trace changes
// whenever the balancer routes, moves, degrades, adopts or deletes
// differently — or issues a different sequence of member requests (the
// fault gates' every-Nth counters see them all). One line per seed in
// testdata/trace.golden. Refresh with
// `go test -run TestBalancerTraceGolden -update ./internal/dst/`; to
// see what changed, run both trees with `-tracedir <dir>` and diff the
// seed's two traces.
func TestBalancerTraceGolden(t *testing.T) {
	lines := make([]string, 0, goldenSeeds)
	for seed := int64(1); seed <= goldenSeeds; seed++ {
		r := RunSeed(Config{Seed: seed, Events: 300})
		lines = append(lines, fmt.Sprintf("%d %x", seed, sha256.Sum256(r.Trace)))
		if *traceDir != "" {
			name := filepath.Join(*traceDir, fmt.Sprintf("seed-%d.trace", seed))
			if err := os.WriteFile(name, r.Trace, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	compareGolden(t, "trace.golden", lines)
}

// counterSeeds is the seed range of TestCountersGolden.
const counterSeeds = 10

// TestCountersGolden pins where every count lands: at the end of each
// seed's run, every FedStats counter of the balancer, and every
// ServerStats and PipelineStats counter of each member's final
// incarnation, one name=value line each, against
// testdata/counters.golden. A write site mapped to the wrong counter
// moves two lines here even when the wire surface (lifecycle.golden
// covers the nine counters on /v1/stats) does not move.
func TestCountersGolden(t *testing.T) {
	var lines []string
	emit := func(prefix string, counts map[string]int) {
		names := make([]string, 0, len(counts))
		for name := range counts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			lines = append(lines, fmt.Sprintf("%s %s=%d", prefix, name, counts[name]))
		}
	}
	for seed := int64(1); seed <= counterSeeds; seed++ {
		cfg := Config{Seed: seed, Events: 300}
		h, err := newHarness(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h.run(Generate(cfg))
		h.fleet.Close()
		emit(fmt.Sprintf("seed=%d fed", seed), h.fleet.Stats.Snapshot())
		for _, m := range h.fleet.Members {
			emit(fmt.Sprintf("seed=%d %s server", seed, m.ID), m.Srv.Stats.Snapshot())
			emit(fmt.Sprintf("seed=%d %s pipeline", seed, m.ID), m.Med.Pipeline.Snapshot())
		}
	}
	compareGolden(t, "counters.golden", lines)
}

// compareGolden checks lines against testdata/<name> (rewriting it under
// -update) and reports each line that drifted.
func compareGolden(t *testing.T, name string, lines []string) {
	t.Helper()
	got := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", name)
	if *updateGolden {
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
	if string(want) == got {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i, line := range lines {
		if i >= len(wantLines) || wantLines[i] != line {
			w := "<missing>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("%s drifted (intentional changes: re-run with -update):\n--- golden ---\n%s\n--- got ---\n%s", name, w, line)
		}
	}
	if len(wantLines) != len(lines) {
		t.Errorf("%s has %d lines, the sweep %d", name, len(wantLines), len(lines))
	}
}
