package audit_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"medea/internal/audit"
	"medea/internal/chaos"
	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/lra"
	"medea/internal/resource"
)

// TestBatchValidationOracle: validating a batch in order on one scratch
// clone, in place, gives the verdicts — same order, same errors — of
// validating each placement on a clone of a cluster that the accepted
// placements before it were committed to. After every veto the scratch
// is what it was before it. Validated in place on live state, the same
// batch gives the same verdicts, and undoing the accepted placements in
// reverse order gives back the pre-batch cluster: snapshot, containers
// and every node's and rack's tag multiset. Batches mix honest
// placements computed app by app (so they collide in capacity and in
// hard constraints) with chaos.Byzantine over-capacity, duplicate-ID
// and down-node proposals.
func TestBatchValidationOracle(t *testing.T) {
	vetoes := map[string]int{}
	accepted := 0
	for seed := int64(1); seed <= 300; seed++ {
		state, active, apps, placements := oracleBatch(seed)

		var want []string
		live, entries := state.Clone(), active
		for i, p := range placements {
			all := withOwn(entries, apps[i])
			err := audit.CheckPlacement(live.Clone(), apps[i], &p, all)
			want = append(want, verdict(err))
			if err == nil && p.Placed {
				for _, a := range p.Assignments {
					if err := live.Allocate(a.Node, a.Container, a.Demand, a.Tags); err != nil {
						t.Fatalf("seed %d: committing accepted %s: %v", seed, p.AppID, err)
					}
				}
				entries = all
			}
		}

		scratch, entries := state.Clone(), active
		for i, p := range placements {
			all := withOwn(entries, apps[i])
			before, ids := scratch.TakeSnapshot(), containerIDs(scratch)
			err := audit.CheckPlacement(scratch, apps[i], &p, all)
			if got := verdict(err); got != want[i] {
				t.Fatalf("seed %d placement %d (%s): scratch verdict %q, per-placement verdict %q", seed, i, p.AppID, got, want[i])
			}
			if err == nil {
				if p.Placed {
					accepted++
					entries = all
				}
				continue
			}
			vetoes[vetoKind(err)]++
			if aerr := scratch.CheckAccounting(); aerr != nil {
				t.Fatalf("seed %d placement %d: accounting after veto: %v", seed, i, aerr)
			}
			if after := scratch.TakeSnapshot(); !reflect.DeepEqual(before, after) {
				t.Fatalf("seed %d placement %d: veto %q changed the scratch", seed, i, err)
			}
			if got := containerIDs(scratch); !reflect.DeepEqual(ids, got) {
				t.Fatalf("seed %d placement %d: veto %q changed the containers", seed, i, err)
			}
		}
		if !reflect.DeepEqual(scratch.TakeSnapshot(), live.TakeSnapshot()) ||
			!reflect.DeepEqual(containerIDs(scratch), containerIDs(live)) {
			t.Fatalf("seed %d: the scratch after the batch differs from the cluster committed in order", seed)
		}

		// Validation on live state: in place on a stand-in for the live
		// cluster, then the accepted placements undone in reverse order.
		inPlace, entries := state.Clone(), active
		snap, ids, before := inPlace.TakeSnapshot(), containerIDs(inPlace), inPlace.Clone()
		var undo [][]lra.Assignment
		for i, p := range placements {
			all := withOwn(entries, apps[i])
			err := audit.CheckPlacement(inPlace, apps[i], &p, all)
			if got := verdict(err); got != want[i] {
				t.Fatalf("seed %d placement %d (%s): in-place verdict %q, per-placement verdict %q", seed, i, p.AppID, got, want[i])
			}
			if err == nil && p.Placed {
				undo = append(undo, p.Assignments)
				entries = all
			}
		}
		for k := len(undo) - 1; k >= 0; k-- {
			audit.Undo(inPlace, undo[k])
		}
		if got := inPlace.TakeSnapshot(); !reflect.DeepEqual(got, snap) {
			t.Fatalf("seed %d: the snapshot after undoing the batch differs from the pre-batch one", seed)
		}
		if got := containerIDs(inPlace); !reflect.DeepEqual(got, ids) {
			t.Fatalf("seed %d: containers after undoing the batch %v, want %v", seed, got, ids)
		}
		if diff := inPlace.Diff(before); diff != "" {
			t.Fatalf("seed %d: tag multisets after undoing the batch: %s", seed, diff)
		}
	}
	t.Logf("%d placements accepted; vetoes %v", accepted, vetoes)
	for _, kind := range []string{"over-capacity", "duplicate-id", "down-node", "hard"} {
		if vetoes[kind] == 0 {
			t.Errorf("coverage: no %s veto in the sweep", kind)
		}
	}
}

// oracleBatch builds one seeded case: a 12-node cluster with deployed
// background containers and, on some seeds, a down node; hard and soft
// constraints; and a batch of 3–6 applications with one proposal each.
func oracleBatch(seed int64) (*cluster.Cluster, []constraint.Entry, []*lra.Application, []lra.Placement) {
	rng := rand.New(rand.NewSource(seed))
	tags := []constraint.Tag{"db", "web", "cache"}
	state := cluster.Grid(12, 4, resource.New(4096, 8))
	for i := 0; i < 10; i++ {
		tag := tags[rng.Intn(len(tags))]
		// A background container that does not fit is simply not there.
		_ = state.Allocate(cluster.NodeID(rng.Intn(12)), cluster.MakeContainerID("bg", i), resource.New(512, 1), []constraint.Tag{tag})
	}
	if rng.Intn(2) == 0 {
		state.FailNode(cluster.NodeID(rng.Intn(12)))
	}
	weight := func() float64 {
		if rng.Intn(3) == 0 {
			return 1 // soft: never a veto
		}
		return audit.DefaultHardWeight
	}
	active := []constraint.Entry{{
		AppID: "bg", Source: constraint.SourceApplication,
		Constraint: constraint.Weighted(constraint.AntiAffinity(constraint.E("db"), constraint.E("db"), constraint.Node), weight()),
	}}

	apps := make([]*lra.Application, 3+rng.Intn(4))
	for i := range apps {
		tag := tags[rng.Intn(len(tags))]
		app := &lra.Application{
			ID: fmt.Sprintf("app-%d", i),
			Groups: []lra.ContainerGroup{{
				Name: "g", Count: 1 + rng.Intn(4), Demand: resource.New(int64(256*(1+rng.Intn(8))), int64(1+rng.Intn(3))),
				Tags: []constraint.Tag{tag},
			}},
		}
		switch rng.Intn(3) {
		case 0:
			app.Constraints = []constraint.Constraint{constraint.Weighted(
				constraint.AntiAffinity(constraint.E(tag), constraint.E(tag), constraint.Node), weight())}
		case 1:
			app.Constraints = []constraint.Constraint{constraint.Weighted(
				constraint.MaxCardinality(constraint.E(tag), constraint.E(tag), 1, constraint.Rack), weight())}
		}
		apps[i] = app
	}

	// Honest proposals are computed app by app on the pre-batch state, as
	// independent sub-batches are, so they may collide with each other.
	placements := make([]lra.Placement, len(apps))
	for i, app := range apps {
		placements[i] = lra.NewNodeCandidates().Place(state, apps[i:i+1], active, lra.Options{}).Placements[0]
		if rng.Intn(3) == 0 {
			faults := []chaos.Fault{chaos.FaultOverCapacity, chaos.FaultDuplicateID, chaos.FaultDownNode}
			byz := &chaos.Byzantine{Inner: lra.NewNodeCandidates(), Every: 1, Faults: []chaos.Fault{faults[rng.Intn(len(faults))]}}
			placements[i] = byz.Place(state, []*lra.Application{app}, active, lra.Options{}).Placements[0]
		}
	}
	return state, active, apps, placements
}

// withOwn returns entries plus app's own constraints, in a new slice.
func withOwn(entries []constraint.Entry, app *lra.Application) []constraint.Entry {
	all := append([]constraint.Entry(nil), entries...)
	for _, c := range app.Constraints {
		all = append(all, constraint.Entry{AppID: app.ID, Source: constraint.SourceApplication, Constraint: c})
	}
	return all
}

// containerIDs lists the containers of c, sorted.
func containerIDs(c *cluster.Cluster) []cluster.ContainerID {
	var ids []cluster.ContainerID
	c.EachContainer(func(id cluster.ContainerID, _ cluster.NodeID, _ []constraint.Tag) { ids = append(ids, id) })
	slices.Sort(ids)
	return ids
}

func verdict(err error) string {
	if err == nil {
		return "accept"
	}
	return err.Error()
}

// vetoKind classifies a veto for the coverage check.
func vetoKind(err error) string {
	switch msg := err.Error(); {
	case strings.Contains(msg, "does not fit"):
		return "over-capacity"
	case strings.Contains(msg, "already allocated"):
		return "duplicate-id"
	case strings.Contains(msg, "down node"):
		return "down-node"
	case strings.Contains(msg, "hard constraint violated"):
		return "hard"
	default:
		return msg
	}
}
