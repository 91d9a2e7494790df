package chaos

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/core"
	"medea/internal/lra"
	"medea/internal/resource"
)

var updateGolden = flag.Bool("update", false, "rewrite the determinism golden file")

// placementFingerprint extends the durable-state Fingerprint with the
// exact node of every deployed container. The crash tests deliberately
// exclude node assignments (a crash may shift WHERE a repair lands);
// the determinism regression demands them — a cycle of several
// components must reproduce its placements bit for bit, under any
// GOMAXPROCS, or journal replay diverges.
func placementFingerprint(m *core.Medea) string {
	var b strings.Builder
	b.WriteString(Fingerprint(m))
	for _, appID := range m.DeployedApps() {
		ids, _ := m.Deployed(appID)
		lines := make([]string, 0, len(ids))
		for _, id := range ids {
			if node, ok := m.Cluster.ContainerNode(id); ok {
				lines = append(lines, fmt.Sprintf("%s@%d", id, node))
			}
		}
		sort.Strings(lines)
		fmt.Fprintf(&b, "nodes %s: %s\n", appID, strings.Join(lines, ","))
	}
	return b.String()
}

// determinismScenario drives a fixed ILP-scheduled workload — batches
// mixing constraint-coupled and independent apps (so the union-find
// partition places several components per cycle), a node failure
// with automatic repair, and an app teardown — and returns the final
// placement fingerprint. SolverBudget is effectively unbounded so no
// wall-clock deadline can leak nondeterminism into the search.
func determinismScenario() (string, error) {
	c := cluster.Grid(12, 4, resource.New(1000, 16))
	m := core.New(c, lra.NewILP(), core.Config{
		Interval:     time.Second,
		SolverBudget: time.Hour,
	})
	now := time.Unix(0, 0)

	submit := func(id string, count int, tags []constraint.Tag, cs ...constraint.Constraint) error {
		return m.SubmitLRA(&lra.Application{
			ID: id,
			Groups: []lra.ContainerGroup{{
				Name: "w", Count: count, Demand: resource.New(120, 2), Tags: tags,
			}},
			Constraints: cs,
		}, now)
	}
	cycle := func() { now = now.Add(time.Second); m.RunCycle(now) }

	// Three cycles of mixed batches. Within each batch: two apps coupled
	// through the shared "db" tag, one coupled pair via "web"/"cache",
	// and one unconstrained singleton — at least three independent
	// components per cycle, placed one after the other.
	for i := 0; i < 3; i++ {
		sfx := fmt.Sprintf("-%d", i)
		db := constraint.E(constraint.Tag("db"))
		if err := submit("dbA"+sfx, 3, []constraint.Tag{"db"},
			constraint.New(constraint.AntiAffinity(db, db, constraint.Node))); err != nil {
			return "", err
		}
		if err := submit("dbB"+sfx, 2, []constraint.Tag{"db"}); err != nil {
			return "", err
		}
		if err := submit("web"+sfx, 2, []constraint.Tag{"web"},
			constraint.New(constraint.Affinity(constraint.E("web"), constraint.E("cache"), constraint.Rack))); err != nil {
			return "", err
		}
		if err := submit("cache"+sfx, 2, []constraint.Tag{"cache"}); err != nil {
			return "", err
		}
		if err := submit("solo"+sfx, 1, nil); err != nil {
			return "", err
		}
		cycle()
	}

	// Fail a node: its containers enter the repair queue and the repair
	// loop re-places them over the following cycles.
	m.FailNode(3, now)
	for i := 0; i < 4; i++ {
		cycle()
	}
	m.RecoverNode(3, now)
	if err := m.RemoveLRA("solo-1"); err != nil {
		return "", err
	}
	cycle()

	// Resubmission phase: tear down and resubmit apps under the same IDs
	// and shapes, beside a fresh app, so the ILP scheduler re-solves
	// batches it has solved before, on arenas pooled since. Determinism
	// must hold there too.
	if err := m.RemoveLRA("web-2"); err != nil {
		return "", err
	}
	if err := m.RemoveLRA("cache-2"); err != nil {
		return "", err
	}
	cycle()
	if err := submit("web-2", 2, []constraint.Tag{"web"},
		constraint.New(constraint.Affinity(constraint.E("web"), constraint.E("cache"), constraint.Rack))); err != nil {
		return "", err
	}
	if err := submit("cache-2", 2, []constraint.Tag{"cache"}); err != nil {
		return "", err
	}
	if err := submit("solo-1", 1, nil); err != nil {
		return "", err
	}
	if err := submit("late", 2, nil); err != nil {
		return "", err
	}
	cycle()
	cycle()

	if err := m.CheckInvariants(); err != nil {
		return "", err
	}
	return placementFingerprint(m), nil
}

// TestPlacementDeterminism is the end-to-end determinism regression of
// multi-component ILP cycles, replay and the solver arenas pooled across
// them: the scenario fingerprint must be identical
// across GOMAXPROCS 1, 4 and 8 and across 20 repeated runs at
// GOMAXPROCS 8, and must match the golden fingerprint pinned in testdata
// (refresh with `go test -run PlacementDeterminism -update
// ./internal/chaos/`).
func TestPlacementDeterminism(t *testing.T) {
	ref, err := determinismScenario()
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, p := range []int{1, 4, 8} {
		runtime.GOMAXPROCS(p)
		got, err := determinismScenario()
		if err != nil {
			t.Fatalf("GOMAXPROCS=%d: %v", p, err)
		}
		if got != ref {
			t.Fatalf("GOMAXPROCS=%d fingerprint diverged:\n--- reference ---\n%s--- GOMAXPROCS=%d ---\n%s",
				p, ref, p, got)
		}
	}

	runtime.GOMAXPROCS(8)
	for run := 0; run < 20; run++ {
		got, err := determinismScenario()
		if err != nil {
			t.Fatalf("repeat %d: %v", run, err)
		}
		if got != ref {
			t.Fatalf("repeat %d at GOMAXPROCS=8 diverged:\n--- reference ---\n%s--- run %d ---\n%s",
				run, ref, run, got)
		}
	}
	runtime.GOMAXPROCS(prev)

	golden := filepath.Join("testdata", "determinism.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(ref), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create it): %v", err)
	}
	if string(want) != ref {
		t.Fatalf("fingerprint drifted from golden (intentional changes: re-run with -update):\n--- golden ---\n%s--- got ---\n%s",
			want, ref)
	}
}
