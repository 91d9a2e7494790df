package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/lra"
	"medea/internal/resource"
	"medea/internal/taskched"
	"medea/internal/workload"
)

// cycleMaxAllocs caps one 12-LRA cycle of TestRunCycleAllocCap, about
// 23% above the most it is measured at on go1.24.0: 1,983 at one P and
// at two and 2,031–2,047 under -race since the twelve components are
// placed one after the other on the live cluster (3,152–3,154 /
// 3,162–3,165 / 3,204–3,212, under a cap of 3,980, while Medea-ILP
// solved them concurrently, the first on the live cluster and each other
// on a clone of its own, and a Place whose Medea-TP placement is decided
// already returned it before it built the model; 6,157–6,160 /
// 6,210–6,221 / 6,197–6,283, under a cap of 7,800, while it still
// solved and skipped only Serial and the decode of the solver's
// placement; 6,541 / 6,544–6,606 / 6,591–6,671 while a Place priced the
// (node, tag vector) pairs of its state and ran both; 6,553 /
// 6,614–6,622 / 6,583–6,670 before that, where 7,237 / 7,245–7,304 /
// 7,271–7,347 had been recorded when a Place came to fill one score
// table, build its requests once and keep one copy of each model row;
// 9,186 / 9,256 / 9,770–9,875 before that; 9,526 / 9,598 / 10,112–10,248
// while each container's record was a heap object; 9,531–9,533 /
// 9,546–9,600 / 10,087–10,256 while a cycle copied its constraint list at every step,
// 9,458 / 9,531–9,534 / 10,097–10,170 before a Place compiled its
// constraint list once per tag vector, 9,485 / 9,559 / 10,100–10,200
// while constraints were deduplicated by their text, 9,596 / 9,664 /
// 10,305 while each Place cloned the cluster, 13,593 / 13,729 / 14,275
// while tag multisets were maps). Each run builds its own ILP, so the
// count includes the solver arenas it allocates. The cycle scores ~2,400 candidate nodes, so one allocation per scored
// candidate fails here; so does validating each placement on a clone of
// its own (the cycle validates the batch in place on the live cluster and
// clones nothing), and so does a Place that builds its three candidate
// placements on three clones (13,228: it builds them on the cluster it is
// handed), and so does one clone per component but the first (~110
// allocations each here, about 1,200 for the cycle) or per Place;
// TestOneComponentPlacesOnLiveCluster and
// TestComponentsPlanOnPreCycleState check the cluster each Place is
// handed directly. Allocation counts do not depend on the host, so the
// cap is an exact wall.
const cycleMaxAllocs = 2440

// spreadApp is one LRA of the cycle fixture: four containers that must
// spread across nodes, tagged per app, so the partition sees twelve
// independent components.
func spreadApp(i int) *lra.Application {
	id := fmt.Sprintf("svc-%02d", i)
	self := constraint.E(constraint.AppIDTag(id))
	return &lra.Application{
		ID: id,
		Groups: []lra.ContainerGroup{{
			Name: "w", Count: 4, Demand: resource.New(200, 4),
			Tags: []constraint.Tag{constraint.Tag(fmt.Sprintf("t%d", i))},
		}},
		Constraints: []constraint.Constraint{
			constraint.New(constraint.AntiAffinity(self, self, constraint.Node)),
		},
	}
}

// TestRunCycleAllocCap holds one scheduling cycle — a 64-node grid built,
// twelve spreadApps submitted, one RunCycle on the ILP — to
// cycleMaxAllocs, at GOMAXPROCS 1 and at the host's CPU count.
func TestRunCycleAllocCap(t *testing.T) {
	checkCycleAllocs(t, lra.NewILP, cycleMaxAllocs)
}

// ncCycleMaxAllocs caps one 12-LRA Medea-NC cycle of
// TestNCCycleAllocCap, about 23% above the most it was measured at:
// 1,786 at one P and at two, 1,830–1,842 under -race since a container
// ID is built without fmt (1,822 / 1,888–1,912 before; 2,022 /
// 2,082–2,122 while each container's record was a heap object;
// 2,051–2,053 and 2,111–2,137 while a cycle copied its constraint list
// at every step). Medea-NC places the twelve components one after the other on the live cluster;
// a cycle that clones it for each component but the first (~110
// allocations a clone) measured 3,261 and fails here, and so did the
// concurrent fan-out with its clones and goroutines (3,299–3,305).
const ncCycleMaxAllocs = 2270

// TestNCCycleAllocCap holds the cycle of TestRunCycleAllocCap, placed by
// Medea-NC, to ncCycleMaxAllocs.
func TestNCCycleAllocCap(t *testing.T) {
	checkCycleAllocs(t, lra.NewNodeCandidates, ncCycleMaxAllocs)
}

// checkCycleAllocs builds a 64-node grid, submits twelve spreadApps —
// twelve independent components — and runs one cycle with a fresh
// newAlg(), which must place all twelve. It counts the second of two such
// runs, from runtime.MemStats, at GOMAXPROCS 1 and at the host's CPU
// count, and fails a count above limit. Each run builds its own
// algorithm, so the count includes whatever state it keeps between
// Place calls (the ILP's solver arenas).
func checkCycleAllocs(t *testing.T, newAlg func() lra.Algorithm, limit uint64) {
	var name string
	cycle := func() {
		alg := newAlg()
		name = alg.Name()
		m := New(cluster.Grid(64, 4, resource.New(4000, 64)), alg, Config{
			Interval:     time.Second,
			SolverBudget: 30 * time.Second,
		})
		for a := 0; a < 12; a++ {
			if err := m.SubmitLRA(spreadApp(a), t0); err != nil {
				t.Fatal(err)
			}
		}
		if stats := m.RunCycle(t0.Add(time.Second)); stats.Placed != 12 {
			t.Fatalf("cycle placed %d/12", stats.Placed)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, runtime.NumCPU()} {
		runtime.GOMAXPROCS(procs)
		cycle()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cycle()
		runtime.ReadMemStats(&after)
		allocs := after.Mallocs - before.Mallocs
		t.Logf("%s, GOMAXPROCS %d: %d allocs, %d kB", name, procs, allocs, (after.TotalAlloc-before.TotalAlloc)>>10)
		if allocs > limit {
			t.Errorf("%s, GOMAXPROCS %d: cycle allocated %d times, cap %d", name, procs, allocs, limit)
		}
	}
}

// validateMaxAllocs caps TestValidateBatchAllocCap, about 10% above the
// 82–83 allocations and 27 kB measured, the same at one P, at two and
// under -race, while each container's record was a heap object (66–67
// since the container map holds records by value; 85–87 and 27 kB
// while each check copied the list, 277 while tag multisets were
// maps). One Clone of the fixture's 1,290-container state costs 688
// (860 with heap records), so a clone on the commit path fails here.
const validateMaxAllocs = 96

// templateApp returns the i-th LRA of the template rotation: the
// paper's TensorFlow and HBase templates and the Storm+Memcached
// pipeline, in turn.
func templateApp(i int) *lra.Application {
	id := fmt.Sprintf("lra-%03d", i)
	switch i % 3 {
	case 0:
		return workload.TensorFlow(id, workload.DefaultTF())
	case 1:
		return workload.HBase(id, workload.HBaseConfig{Workers: 10, MaxWorkersPerNode: 4, RackAffinity: true, MasterConstraints: true})
	default:
		return workload.StormPipeline(id, 4, "intra-inter")
	}
}

// TestValidateBatchAllocCap holds commit-time validation of a 2-LRA
// batch, on a 256-node grid populated with 80 template LRAs and 512
// tasks, to validateMaxAllocs: validation runs in place on the live
// cluster and clones nothing. It counts the second of two validations
// of the same proposals, from runtime.MemStats; each leaves the cluster
// as it found it.
func TestValidateBatchAllocCap(t *testing.T) {
	m := New(cluster.Grid(256, 8, resource.New(16384, 8)), lra.NewNodeCandidates(), Config{Interval: time.Second})
	now := t0
	for i := 0; i < 80; i++ {
		if err := m.SubmitLRA(templateApp(i), now); err != nil {
			t.Fatal(err)
		}
		if i%8 == 7 {
			now = now.Add(time.Second)
			m.RunCycle(now)
		}
	}
	for n := 0; n < 10 && m.PendingLRAs() > 0; n++ {
		now = now.Add(time.Second)
		m.RunCycle(now) // batch members that collided in validation
	}
	if got := m.DeployedLRAs(); got != 80 {
		t.Fatalf("%d/80 LRAs deployed", got)
	}
	_ = m.Tasks.Submit("job", "default", now, taskched.TaskRequest{Count: 256 * 2, Demand: resource.DefaultProfile})
	for n := 0; n < 256; n++ {
		m.Tasks.NodeHeartbeat(cluster.NodeID(n), now)
	}

	apps := []*lra.Application{templateApp(80), templateApp(81)}
	batch := []*pendingApp{{app: apps[0]}, {app: apps[1]}}
	active := m.Constraints.Active()
	res := lra.NewNodeCandidates().Place(m.Cluster, apps, active, lra.Options{})
	before := m.Cluster.TakeSnapshot()
	validate := func() {
		var stats CycleStats
		accepted := m.validateBatch(batch, res.Placements, active, &stats)
		if stats.ValidationRejects != 0 || !accepted[0] || !accepted[1] {
			t.Fatalf("validation: accepted %v, %d vetoes", accepted, stats.ValidationRejects)
		}
	}
	validate()
	var b, a runtime.MemStats
	runtime.ReadMemStats(&b)
	validate()
	runtime.ReadMemStats(&a)
	allocs := a.Mallocs - b.Mallocs
	t.Logf("%d containers: %d allocs, %d kB", m.Cluster.NumContainers(), allocs, (a.TotalAlloc-b.TotalAlloc)>>10)
	if allocs > validateMaxAllocs {
		t.Errorf("validating the batch allocated %d times, cap %d", allocs, validateMaxAllocs)
	}
	if got := m.Cluster.TakeSnapshot(); !reflect.DeepEqual(got, before) {
		t.Error("validation left the batch on the cluster")
	}
}
