package lra

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// compareGolden checks got against testdata/<name> line by line, after
// rewriting the file when -update is set.
func compareGolden(t *testing.T, name, got string) {
	t.Helper()
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
	wantLines := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got, "\n") {
		if i >= len(wantLines) || wantLines[i] != line {
			w := "<missing>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Fatalf("%s drifted at line %d (intentional changes: re-run with -update):\n--- golden ---\n%s\n--- got ---\n%s", name, i+1, w, line)
		}
	}
	t.Fatalf("%s has %d lines, the suite fewer", name, len(wantLines))
}

// tickingClock is a virtual clock that advances one step per reading. A
// solve's deadline then falls after a fixed number of clock readings, so
// whether the budget ran out is a function of the work done and repeats
// on every host, under -race and at any GOMAXPROCS.
func tickingClock(step time.Duration) func() time.Time {
	now := time.Unix(0, 0)
	return func() time.Time {
		now = now.Add(step)
		return now
	}
}

// placeGoldenLine renders what the golden pins of one Place: per
// application whether it was placed and the node of each container (in
// container order), then the solve-path counters.
func placeGoldenLine(label string, res *Result) string {
	var b strings.Builder
	b.WriteString(label)
	for _, p := range res.Placements {
		fmt.Fprintf(&b, " %s=%v", p.AppID, p.Placed)
		asg := append([]Assignment(nil), p.Assignments...)
		sort.Slice(asg, func(i, j int) bool { return asg[i].Container < asg[j].Container })
		for i, a := range asg {
			sep := ","
			if i == 0 {
				sep = ":"
			}
			fmt.Fprintf(&b, "%s%d", sep, a.Node)
		}
	}
	fmt.Fprintf(&b, " exact=%d warm=%d hit=%v exhausted=%v", res.ExactSolves, res.WarmStarts, res.DeadlineHit, res.Exhausted)
	return b.String()
}

// samePlace reports whether two Place results agree on every placement
// and on how their solves went.
func samePlace(a, b *Result) bool {
	return reflect.DeepEqual(a.Placements, b.Placements) && a.Nodes == b.Nodes &&
		a.WarmStarts == b.WarmStarts && a.DeadlineHit == b.DeadlineHit && a.Exhausted == b.Exhausted
}

// TestILPPlaceGolden pins what Medea-ILP's Place returns — per
// application placed or not and every container's node, ExactSolves,
// WarmStarts and DeadlineHit — over 200 seeded scenarios: a cluster with
// deployed applications and their constraints (every other one nearly
// full), a batch with simple, weighted and DNF constraints, a candidate
// cap or a weight vector without the balance term on some. Each scenario
// is solved twice on one scheduler: on a third of the seeds the second
// solve sees the same batch and cluster (a requeue), on a third the first
// application was committed and left the batch, on a third a node the
// first solve used is drained. Place keeps nothing between calls but its
// solver arenas, so the second solve must equal the same solve on a fresh
// scheduler. The clock ticks per reading, so the deadline is part of what
// is pinned. Refresh with
// `go test -run TestILPPlaceGolden -update ./internal/lra/`.
func TestILPPlaceGolden(t *testing.T) {
	var lines []string
	var hits, exhausted, warm, unplaced, changed int
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		state := oracleCluster(rng)
		deployed := oracleBatch(rng, "dep", 3+rng.Intn(6))
		active := deployBatch(t, state, deployed, NewSerial().(*greedy).oraclePlace(state, deployed, nil))
		if seed%2 == 0 {
			fillNearlyFull(t, rng, state)
		}
		apps := oracleBatch(rng, "new", 1+rng.Intn(4))
		// In clock readings: 6 end most solves before an incumbent (the
		// two heuristics take up to four: Serial's two are skipped when
		// Medea-TP's score is decided), 120 let the models that can
		// finish do so.
		budget := []time.Duration{6, 40, 120}[(seed/3)%3] * time.Millisecond
		opts := Options{SolverBudget: budget, Clock: tickingClock(time.Millisecond)}
		if seed%5 == 0 {
			opts.MaxCandidates = 4
		}
		if seed%7 == 0 {
			opts.Weights = Weights{W1: 1, W2: 0.75, W3: 0.25}
		}

		s := NewILP().(*ilpScheduler)
		first := s.Place(state, apps, active, opts)
		lines = append(lines, placeGoldenLine(fmt.Sprintf("seed=%d first", seed), first))

		switch seed % 3 {
		case 1: // the first application commits; the rest come back
			active = append(active, deployBatch(t, state, apps[:1], first.Placements[:1])...)
			apps = apps[1:]
		case 2: // a node the first solve used is drained
			for _, p := range first.Placements {
				if p.Placed {
					state.DrainNode(p.Assignments[0].Node)
					break
				}
			}
		}
		opts.Clock = tickingClock(time.Millisecond)
		second := s.Place(state, apps, active, opts)
		lines = append(lines, placeGoldenLine(fmt.Sprintf("seed=%d second", seed), second))
		opts.Clock = tickingClock(time.Millisecond)
		if fresh := NewILP().Place(state, apps, active, opts); !samePlace(second, fresh) {
			t.Errorf("seed %d: the second solve differs from the same solve on a fresh scheduler:\n%s\n%s",
				seed, placeGoldenLine("reused", second), placeGoldenLine("fresh", fresh))
		}

		for _, res := range []*Result{first, second} {
			hits += b2f(res.DeadlineHit)
			exhausted += b2f(res.Exhausted)
			warm += res.WarmStarts
			unplaced += b2f(res.PlacedApps() < len(res.Placements))
		}
		if seed%3 == 0 && !sameNodes(first, second) {
			changed++
		}
	}
	t.Logf("%d solves: %d hit the deadline (%d before any incumbent), %d took a warm start, %d left an application unplaced; %d requeues changed the placement",
		len(lines), hits, exhausted, warm, unplaced, changed)
	if len(lines)-hits < 50 || exhausted == 0 || exhausted == hits || warm == 0 || unplaced == 0 {
		t.Fatal("coverage: one of the three exits of Place is not taken, or hardly")
	}
	compareGolden(t, "place.golden", strings.Join(lines, "\n")+"\n")
}
