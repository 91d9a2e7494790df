package lra

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"medea/internal/cluster"
)

// panicSource is a rand.Source that panics on the draw after its left-th.
type panicSource struct {
	rand.Source
	left int
}

// errDrawn is what a panicSource panics with.
const errDrawn = "panicSource: drawn once too often"

func (s *panicSource) Int63() int64 {
	if s.left--; s.left < 0 {
		panic(errDrawn)
	}
	return s.Source.Int63()
}

// panicking is the YARN baseline drawing its first-fit frontier from a
// panicSource seeded with seed that allows left draws.
func panicking(seed int64, left int) *greedy {
	g := NewYARN().(*greedy)
	g.rng = rand.New(&panicSource{Source: rand.NewSource(seed), left: left})
	return g
}

// TestPlaceLeavesStateUntouched: every algorithm plans on the cluster it
// is handed and returns it as it found it (cluster.Diff against a clone
// taken before Place: used resources and container counts, the container
// map and every set's tag multiset). On every seed's oracleInstance, half of
// them nearly full, each algorithm places the batch; then the YARN
// baseline, alone and as Medea-ILP's fallback beside Medea-TP, panics on
// a first-fit draw after it has allocated, and the cluster must be as it
// was after the recovered panic too.
func TestPlaceLeavesStateUntouched(t *testing.T) {
	opts := Options{SolverBudget: 40 * time.Millisecond, Clock: tickingClock(time.Millisecond)}
	check := func(seed int64, name string, state *cluster.Cluster, place func()) {
		t.Helper()
		before := state.Clone()
		place()
		if d := state.Diff(before); d != "" {
			t.Fatalf("seed %d %s: Place changed the cluster it was handed: %s", seed, name, d)
		}
	}
	placed, panics := 0, 0
	for seed := int64(1); seed <= 60; seed++ {
		state, apps, active := oracleInstance(t, rand.New(rand.NewSource(seed)), seed%2 == 0)
		for _, alg := range append(allAlgorithms(), NewYARN()) {
			check(seed, alg.Name(), state, func() {
				placed += alg.Place(state, apps, active, opts).PlacedApps()
			})
		}

		// Count the first-fit draws of an undisturbed YARN Place, then
		// panic on one of them after the first.
		src := &panicSource{Source: rand.NewSource(seed), left: math.MaxInt}
		yarn := NewYARN().(*greedy)
		yarn.rng = rand.New(src)
		yarn.Place(state, apps, active, opts)
		draws := math.MaxInt - src.left
		if draws < 2 {
			continue
		}
		left := 1 + int(seed)%(draws-1)
		fallback := &ilpScheduler{fallback: &bestOf{algs: []*greedy{NewTagPopularity().(*greedy), panicking(seed, left)}}}
		for _, alg := range []Algorithm{panicking(seed, left), fallback} {
			check(seed, "panicking "+alg.Name(), state, func() {
				defer func() {
					if r := recover(); r != errDrawn {
						t.Fatalf("seed %d %s: recovered %v, want the draw panic", seed, alg.Name(), r)
					}
					panics++
				}()
				alg.Place(state, apps, active, opts)
			})
		}
	}
	if placed == 0 || panics == 0 {
		t.Fatalf("%d applications placed, %d panics: the test exercises nothing", placed, panics)
	}
	t.Logf("%d applications placed, %d panics recovered", placed, panics)
}
