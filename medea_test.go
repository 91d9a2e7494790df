package medea_test

import (
	"testing"
	"time"

	"medea"
)

// TestFacadeQuickstart drives the public API end to end, as README shows.
func TestFacadeQuickstart(t *testing.T) {
	c := medea.NewCluster(20, 5, medea.Resource(16384, 8))
	m := medea.New(c, medea.ILP(), medea.Config{})
	app := &medea.Application{
		ID: "hbase-1",
		Groups: []medea.ContainerGroup{{
			Name: "rs", Count: 6, Demand: medea.Resource(2048, 1),
			Tags: []medea.Tag{"hb", "hb_rs"},
		}},
		Constraints: []medea.Constraint{
			medea.MustParse("{hb_rs, {hb_rs, 0, 1}, node}"),
			medea.Affinity(medea.E("hb_rs"), medea.E("hb_rs"), medea.RackGroup),
		},
	}
	now := time.Unix(0, 0)
	if err := m.SubmitLRA(app, now); err != nil {
		t.Fatal(err)
	}
	stats := m.RunCycle(now)
	if stats.Placed != 1 {
		t.Fatalf("stats = %+v", stats)
	}
	rep := medea.Evaluate(c, m)
	if rep.ViolatedContainers != 0 {
		t.Errorf("violations = %d", rep.ViolatedContainers)
	}
	// Task path.
	if err := m.SubmitTasks("job", "default", now, medea.TaskRequest{
		Count: 3, Demand: medea.Resource(1024, 1),
	}); err != nil {
		t.Fatal(err)
	}
	if got := len(m.Tasks.NodeHeartbeat(0, now)); got != 3 {
		t.Errorf("task allocs = %d", got)
	}
}

// TestFacadeConstructors smoke-tests every exported algorithm constructor.
func TestFacadeConstructors(t *testing.T) {
	algs := []medea.Algorithm{
		medea.ILP(), medea.NodeCandidates(), medea.TagPopularity(),
		medea.Serial(), medea.JKube(), medea.JKubePlusPlus(), medea.YARN(),
	}
	seen := map[string]bool{}
	for _, a := range algs {
		if a.Name() == "" || seen[a.Name()] {
			t.Errorf("bad or duplicate algorithm name %q", a.Name())
		}
		seen[a.Name()] = true
	}
	if _, err := medea.Parse("{a, {b, 0, 0}, node}"); err != nil {
		t.Error(err)
	}
	if _, err := medea.Parse("garbage"); err == nil {
		t.Error("garbage parsed")
	}
	if c := medea.Cardinality(medea.E("a"), medea.E("b"), 1, 3, medea.RackGroup); c.Validate() != nil {
		t.Error("cardinality constructor broken")
	}
	if c := medea.AntiAffinity(medea.E("a"), medea.E("b"), medea.UpgradeDomain); c.Validate() != nil {
		t.Error("anti-affinity constructor broken")
	}
}
