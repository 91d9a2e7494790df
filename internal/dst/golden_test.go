package dst

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var (
	updateGolden = flag.Bool("update", false, "rewrite testdata/trace.golden")
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
	got := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", "trace.golden")
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
			t.Errorf("trace drifted from golden (intentional changes: re-run with -update):\n--- golden ---\n%s\n--- got ---\n%s", w, line)
		}
	}
	if len(wantLines) != len(lines) {
		t.Errorf("golden has %d lines, the sweep %d", len(wantLines), len(lines))
	}
}
