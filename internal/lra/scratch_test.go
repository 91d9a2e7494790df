package lra

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/constraint"
)

// placeScenario is one Place's input: a golden-style scenario on the
// 24-node oracle cluster (deployed applications, every other one nearly
// full, a batch of one to four) or, one time in three, a placement
// oracle instance of two to four nodes with other groups.
type placeScenario struct {
	state  *cluster.Cluster
	apps   []*Application
	active []constraint.Entry
	opts   Options
}

func newPlaceScenario(t *testing.T, rng *rand.Rand) placeScenario {
	opts := Options{SolverBudget: []time.Duration{6, 40, 120}[rng.Intn(3)] * time.Millisecond}
	if rng.Intn(3) == 0 {
		in := newTinyInstance(rng.Int63())
		return placeScenario{in.state, in.apps, in.active, opts}
	}
	state := oracleCluster(rng)
	deployed := oracleBatch(rng, "dep", 3+rng.Intn(6))
	active := deployBatch(t, state, deployed, NewSerial().(*greedy).oraclePlace(state, deployed, nil))
	if rng.Intn(2) == 0 {
		fillNearlyFull(t, rng, state)
	}
	return placeScenario{state, oracleBatch(rng, "new", 1+rng.Intn(4)), active, opts}
}

// place runs sc on alg, on a clock that ticks a millisecond per reading.
func (sc placeScenario) place(alg Algorithm) *Result {
	opts := sc.opts
	opts.Clock = tickingClock(time.Millisecond)
	return alg.Place(sc.state, sc.apps, sc.active, opts)
}

// poisonScratch fills every buffer of every pooled scratch of s, up to
// its capacity, with garbage: atoms without a constraint, NaN weights
// and addends, out-of-range indices, memo cells stamped with the epochs
// of the next passes, a
// compile cache whose every entry points past its atoms, and regions
// marked everywhere. The base is left primed, as if it had scored.
func poisonScratch(rng *rand.Rand, s *ilpScheduler) {
	junk := func() int32 { return int32(rng.Intn(1 << 20)) }
	for _, sc := range s.scratch {
		b := &sc.base
		p := b.plan
		for i := range p.all[:cap(p.all)] {
			p.all[:cap(p.all)][i] = atomRef{weight: math.NaN(), entry: junk(), term: junk(), pos: junk(), subject: true, target: true}
		}
		for _, buf := range [][]int32{p.start, p.at, p.always, p.found} {
			for i := range buf[:cap(buf)] {
				buf[:cap(buf)][i] = junk()
			}
		}
		for i := range p.tags[:cap(p.tags)] {
			p.tags[:cap(p.tags)][i] = "poison"
		}
		for i := range p.atoms[:cap(p.atoms)] {
			p.atoms[:cap(p.atoms)][i] = atomRef{weight: math.NaN(), entry: junk(), pos: junk(), subject: true}
		}
		for i := range p.vecs[:cap(p.vecs)] {
			p.vecs[:cap(p.vecs)][i] = compiledVec{[]constraint.Tag{"poison"}, junk(), junk()}
		}
		for k := 0; k < 8; k++ {
			p.byHash[rng.Uint64()] = junk()
		}
		for i := range p.memo.off[:cap(p.memo.off)] {
			p.memo.off[:cap(p.memo.off)][i] = junk()
		}
		for i := range p.memo.cells[:cap(p.memo.cells)] {
			p.memo.cells[:cap(p.memo.cells)][i] = memoCell[int]{p.memo.epoch + uint32(rng.Intn(8)), rng.Intn(50)}
		}
		for _, v := range []*violators{&b.base, &b.work} {
			v.pairs = append(v.pairs, violPair{cluster.NodeID(junk()), []constraint.Tag{"poison"}, junk(), junk()})
			v.addends = append(v.addends, math.NaN())
			v.list = append(v.list, violator{"poison", cluster.NodeID(junk()), junk()})
			v.subject, v.subjectContainers = int(junk()), int(junk())
		}
		for _, in := range [][]bool{b.region, b.dirty} {
			for i := range in[:cap(in)] {
				in[:cap(in)][i] = true
			}
		}
		b.groups = append(b.groups, "poison")
		b.primed = true
	}
}

// TestPlaceScratchPoisoned: a Place on a scheduler whose pooled scratch
// served Places over other constraint lists and clusters, its buffers
// then filled with garbage (poisonScratch), returns what the same Place
// returns on a fresh scheduler — every placement and how the solve went
// — over 80 random sequences of one to three such Places. The scratch
// carries no information between Places: its plan, compile cache, γ
// memo and score base are rebuilt for each.
func TestPlaceScratchPoisoned(t *testing.T) {
	compared, solved, reused := 0, 0, 0
	for seed := int64(1); seed <= 80; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewILP().(*ilpScheduler)
		for k := 0; k < 1+rng.Intn(3); k++ {
			newPlaceScenario(t, rng).place(s)
			poisonScratch(rng, s)
		}
		pooled := s.scratch[0]
		sc := newPlaceScenario(t, rng)
		got, want := sc.place(s), sc.place(NewILP())
		if !samePlace(got, want) || got.DecidedPlaces != want.DecidedPlaces {
			t.Fatalf("seed %d: a Place on poisoned scratch differs from the same Place on a fresh scheduler:\n%s\n%s",
				seed, placeGoldenLine("poisoned", got), placeGoldenLine("fresh", want))
		}
		compared++
		solved += got.ExactSolves
		if len(s.scratch) == 1 && s.scratch[0] == pooled {
			reused++
		}
	}
	t.Logf("%d Places compared, %d of them solved, %d on the pooled scratch", compared, solved, reused)
	if solved == 0 || solved == compared || reused != compared {
		t.Fatal("coverage: no Place solved, every Place solved, or a Place did not reuse the pooled scratch")
	}
}
