package lra

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/resource"
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

// poisonMemo fills every buffer of m, up to its capacity, with garbage:
// out-of-range offsets, every atom dormant, and cells stamped with the
// epochs of the next passes.
func poisonMemo[V any](rng *rand.Rand, m *setMemo[V], val func() V) {
	for i := range m.off[:cap(m.off)] {
		m.off[:cap(m.off)][i] = int32(rng.Intn(1 << 20))
	}
	for _, cells := range [][]memoCell[V]{m.cells[:cap(m.cells)], m.one[:cap(m.one)]} {
		for i := range cells {
			cells[i] = memoCell[V]{m.epoch + uint32(rng.Intn(8)), val()}
		}
	}
	for i := range m.dormant[:cap(m.dormant)] {
		m.dormant[:cap(m.dormant)][i] = true
	}
}

// poisonTable fills every buffer of t, up to its capacity, with garbage:
// cells marked fitting with NaN scores and stamps of later epochs, class
// slots with atoms without a constraint, a poisoned tag vector and node
// group, poisoned memos, cursors and counts, a touch log of nodes out of
// range and a scope matrix that shares every scope. It drops the table's
// scorer and cluster.
func poisonTable(rng *rand.Rand, t *scoreTable) {
	junk := func() int32 { return int32(rng.Intn(1 << 20)) }
	for i := range t.cells[:cap(t.cells)] {
		t.cells[:cap(t.cells)][i] = nodeScore{ok: true, stamp: uint32(junk()), delta: math.NaN(), util: math.NaN()}
	}
	for ci := range t.classes[:cap(t.classes)] {
		c := &t.classes[:cap(t.classes)][ci]
		for i := range c.atoms[:cap(c.atoms)] {
			c.atoms[:cap(c.atoms)][i] = atomRef{weight: math.NaN(), entry: junk(), term: junk(), pos: junk(), subject: true, target: true}
		}
		for i := range c.groups[:cap(c.groups)] {
			c.groups[:cap(c.groups)][i] = "poison"
		}
		poisonMemo(rng, &c.memo, math.NaN)
		c.tags, c.demand = []constraint.Tag{"poison"}, resource.New(int64(junk()), int64(junk()))
		c.cursor, c.clean, c.nc = int(junk()), int(junk()), -int(junk())
	}
	for i := range t.log[:cap(t.log)] {
		t.log[:cap(t.log)][i] = cluster.NodeID(junk())
	}
	for i := range t.scope[:cap(t.scope)] {
		t.scope[:cap(t.scope)][i] = true
	}
	for i := range t.classOf[:cap(t.classOf)] {
		t.classOf[:cap(t.classOf)][i] = int(junk())
	}
	t.g, t.work = nil, nil
}

// poisonResolver fills r's lists, up to their capacity, with entries of
// a poisoned constraint, and its dedup index with keys no constraint
// hashes to.
func poisonResolver(rng *rand.Rand, r *resolver) {
	bad := constraint.Entry{AppID: "poison", Constraint: constraint.Constraint{
		Terms:  [][]constraint.Atom{{constraint.AntiAffinity(constraint.E("poison"), constraint.E("poison"), "poison")}},
		Weight: math.NaN(),
	}}
	for _, list := range [][]constraint.Entry{r.flat[:cap(r.flat)], r.out[:cap(r.out)]} {
		for i := range list {
			list[i] = bad
		}
	}
	for k := 0; k < 8; k++ {
		r.first[rng.Uint64()] = rng.Intn(1 << 20)
	}
}

// poisonScratch fills every buffer of every pooled scratch of s, up to
// its capacity, with garbage: atoms without a constraint, NaN weights
// and addends, out-of-range indices, memo cells stamped with the epochs
// of the next passes, a
// compile cache whose every entry points past its atoms, and regions
// marked everywhere. The base is left primed, as if it had scored. The
// score table and the resolution buffers are poisoned as a greedy
// scorer's are (poisonTable, poisonResolver).
func poisonScratch(rng *rand.Rand, s *ilpScheduler) {
	junk := func() int32 { return int32(rng.Intn(1 << 20)) }
	for _, sc := range s.scratch.free {
		poisonTable(rng, &sc.tab)
		poisonResolver(rng, &sc.res)
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
		poisonMemo(rng, &p.memo, func() int { return rng.Intn(50) })
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
		pooled := s.scratch.free[0]
		sc := newPlaceScenario(t, rng)
		got, want := sc.place(s), sc.place(NewILP())
		if !samePlace(got, want) || got.DecidedPlaces != want.DecidedPlaces {
			t.Fatalf("seed %d: a Place on poisoned scratch differs from the same Place on a fresh scheduler:\n%s\n%s",
				seed, placeGoldenLine("poisoned", got), placeGoldenLine("fresh", want))
		}
		compared++
		solved += got.ExactSolves
		if len(s.scratch.free) == 1 && s.scratch.free[0] == pooled {
			reused++
		}
	}
	t.Logf("%d Places compared, %d of them solved, %d on the pooled scratch", compared, solved, reused)
	if solved == 0 || solved == compared || reused != compared {
		t.Fatal("coverage: no Place solved, every Place solved, or a Place did not reuse the pooled scratch")
	}
}

// TestGreedyScratchPoisoned: a Place of Medea-NC, Medea-TP, Serial,
// J-Kube or J-Kube++ on a scorer whose pooled scratch served Places over
// other batches and clusters, its score table and resolution buffers
// then filled with garbage (poisonTable, poisonResolver), returns what
// the same Place returns on a fresh scorer, over 40 random sequences of
// one to three such Places per algorithm. Each Place resets the table
// and resolves into the buffers before it reads them.
func TestGreedyScratchPoisoned(t *testing.T) {
	for _, mk := range []func() Algorithm{NewNodeCandidates, NewTagPopularity, NewSerial, NewJKube, NewJKubePlusPlus} {
		reused := 0
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := mk().(*greedy)
			for k := 0; k < 1+rng.Intn(3); k++ {
				newPlaceScenario(t, rng).place(g)
				for _, sc := range g.scratch.free {
					poisonTable(rng, &sc.tab)
					poisonResolver(rng, &sc.res)
				}
			}
			pooled := g.scratch.free[0]
			sc := newPlaceScenario(t, rng)
			got, want := sc.place(g), sc.place(mk())
			if !samePlace(got, want) {
				t.Fatalf("%s seed %d: a Place on poisoned scratch differs from the same Place on a fresh scorer:\n%s\n%s",
					g.name, seed, placeGoldenLine("poisoned", got), placeGoldenLine("fresh", want))
			}
			if len(g.scratch.free) == 1 && g.scratch.free[0] == pooled {
				reused++
			}
		}
		if reused != 40 {
			t.Errorf("%s: %d of 40 Places reused the pooled scratch", mk().Name(), reused)
		}
	}
}

// TestConcurrentGreedyPlaces runs two Places at once on one Medea-NC
// value, each on its own cluster, eight times over, as the Algorithm
// contract allows: each must return what a fresh scorer returns for its
// batch, and the race detector must find nothing. Each Place checks its
// own scratch out of the pool.
func TestConcurrentGreedyPlaces(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := NewNodeCandidates()
	for round := 0; round < 8; round++ {
		scs := []placeScenario{newPlaceScenario(t, rng), newPlaceScenario(t, rng)}
		want := make([]*Result, len(scs))
		for i, sc := range scs {
			want[i] = sc.place(NewNodeCandidates())
		}
		got := make([]*Result, len(scs))
		var wg sync.WaitGroup
		for i, sc := range scs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = sc.place(g)
			}()
		}
		wg.Wait()
		for i := range scs {
			if !samePlace(got[i], want[i]) {
				t.Fatalf("round %d Place %d: concurrent on a shared scorer differs from a fresh scorer:\n%s\n%s",
					round, i, placeGoldenLine("shared", got[i]), placeGoldenLine("fresh", want[i]))
			}
		}
	}
}
