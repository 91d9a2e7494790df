package chaos_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"medea/internal/chaos"
	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/lra"
	"medea/internal/resource"
	"medea/internal/workload"
)

// templates draws n LRAs of the paper's templates — TensorFlow, HBase and
// the Storm+Memcached pipeline — at random sizes and constraint options.
func templates(rng *rand.Rand, prefix string, n int) []*lra.Application {
	apps := make([]*lra.Application, n)
	for i := range apps {
		id := fmt.Sprintf("%s-%d", prefix, i)
		switch rng.Intn(3) {
		case 0:
			apps[i] = workload.TensorFlow(id, workload.TFConfig{
				Workers: 2 + rng.Intn(8), ParameterServers: 1 + rng.Intn(2),
				MaxWorkersPerNode: 2 + rng.Intn(3), RackAffinity: rng.Intn(2) == 0,
			})
		case 1:
			apps[i] = workload.HBase(id, workload.HBaseConfig{
				Workers: 2 + rng.Intn(10), MaxWorkersPerNode: rng.Intn(3),
				RackAffinity: rng.Intn(2) == 0, MasterConstraints: true,
			})
		default:
			apps[i] = workload.StormPipeline(id, 1+rng.Intn(4), []string{"none", "intra", "intra-inter"}[rng.Intn(3)])
		}
	}
	return apps
}

// stateInstance draws a 32-node cluster with deployed template LRAs and a
// failed node, the deployed LRAs' constraints, and a batch to place.
func stateInstance(t *testing.T, seed int64) (*cluster.Cluster, []*lra.Application, []constraint.Entry) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := cluster.Grid(32, 4, resource.New(16384, 8))
	deployed := templates(rng, "dep", 4+rng.Intn(5))
	var active []constraint.Entry
	for i, p := range lra.NewSerial().Place(c, deployed, nil, lra.Options{}).Placements {
		if !p.Placed {
			continue
		}
		for _, a := range p.Assignments {
			if err := c.Allocate(a.Node, a.Container, a.Demand, a.Tags); err != nil {
				t.Fatal(err)
			}
		}
		for _, con := range deployed[i].Constraints {
			active = append(active, constraint.Entry{AppID: p.AppID, Source: constraint.SourceApplication, Constraint: con})
		}
	}
	c.FailNode(cluster.NodeID(rng.Intn(c.NumNodes())))
	return c, templates(rng, "new", 2+rng.Intn(4)), active
}

// TestPlaceLeavesStateUntouched: every algorithm, wrapped in a Byzantine
// that misbehaves on every other call with each of its faults in turn,
// returns the cluster it is handed as it found it (cluster.Diff against a
// clone taken before Place), the injected panic included.
func TestPlaceLeavesStateUntouched(t *testing.T) {
	const faults = 6 // FaultPanic through FaultExhausted
	now := time.Unix(0, 0)
	opts := lra.Options{SolverBudget: 40 * time.Millisecond, Clock: func() time.Time {
		now = now.Add(time.Millisecond) // one step per reading: budgets end on work done, not on the host
		return now
	}}
	for seed := int64(1); seed <= 20; seed++ {
		state, apps, active := stateInstance(t, seed)
		for _, inner := range []lra.Algorithm{
			lra.NewILP(), lra.NewNodeCandidates(), lra.NewTagPopularity(), lra.NewSerial(),
			lra.NewJKube(), lra.NewJKubePlusPlus(), lra.NewYARN(),
		} {
			byz := &chaos.Byzantine{Inner: inner, Every: 2}
			for call := 0; call < 2*faults; call++ {
				before := state.Clone()
				func() {
					defer func() { _ = recover() }() // FaultPanic
					byz.Place(state, apps, active, opts)
				}()
				if d := state.Diff(before); d != "" {
					t.Fatalf("seed %d %s call %d: Place changed the cluster it was handed: %s", seed, byz.Name(), byz.Calls, d)
				}
			}
			if byz.Injected != faults {
				t.Fatalf("seed %d %s: %d faults injected, want %d", seed, byz.Name(), byz.Injected, faults)
			}
		}
	}
}
