package audit

import (
	"strings"
	"testing"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/lra"
	"medea/internal/resource"
)

// testApp builds a one-group application with n containers of the given
// demand and tags.
func testApp(id string, n int, demand resource.Vector, tags ...constraint.Tag) *lra.Application {
	return &lra.Application{
		ID:     id,
		Groups: []lra.ContainerGroup{{Name: "g", Count: n, Demand: demand, Tags: tags}},
	}
}

// placementFor builds the canonical (honest) placement of app with its
// containers spread over the given nodes, one per node entry.
func placementFor(app *lra.Application, nodes ...cluster.NodeID) *lra.Placement {
	g := app.Groups[0]
	p := &lra.Placement{AppID: app.ID, Placed: true}
	for i, n := range nodes {
		p.Assignments = append(p.Assignments, lra.Assignment{
			Container: cluster.MakeContainerID(app.ID, i),
			Group:     g.Name,
			Node:      n,
			Demand:    g.Demand,
			Tags:      app.EffectiveTags(g),
		})
	}
	return p
}

func hardEntry(appID string, a constraint.Atom) constraint.Entry {
	return constraint.Entry{
		AppID:      appID,
		Source:     constraint.SourceApplication,
		Constraint: constraint.Weighted(a, DefaultHardWeight),
	}
}

func TestCheckPlacementTable(t *testing.T) {
	small := resource.New(100, 1)
	cases := []struct {
		name    string
		setup   func(t *testing.T, c *cluster.Cluster) (*lra.Application, *lra.Placement, []constraint.Entry)
		wantErr string // empty = accept
	}{
		{
			name: "accept simple placement",
			setup: func(t *testing.T, c *cluster.Cluster) (*lra.Application, *lra.Placement, []constraint.Entry) {
				app := testApp("a", 2, small, "svc")
				return app, placementFor(app, 0, 1), nil
			},
		},
		{
			name: "reject over capacity",
			setup: func(t *testing.T, c *cluster.Cluster) (*lra.Application, *lra.Placement, []constraint.Entry) {
				app := testApp("a", 2, resource.New(600, 6), "svc")
				return app, placementFor(app, 0, 0), nil // 1200MB on a 1000MB node
			},
			wantErr: "does not fit",
		},
		{
			name: "accept filling a node exactly",
			setup: func(t *testing.T, c *cluster.Cluster) (*lra.Application, *lra.Placement, []constraint.Entry) {
				app := testApp("a", 2, resource.New(500, 5), "svc")
				return app, placementFor(app, 0, 0), nil
			},
		},
		{
			name: "reject double-assigned container ID",
			setup: func(t *testing.T, c *cluster.Cluster) (*lra.Application, *lra.Placement, []constraint.Entry) {
				app := testApp("a", 2, small, "svc")
				p := placementFor(app, 0, 1)
				p.Assignments[1].Container = p.Assignments[0].Container
				return app, p, nil
			},
			wantErr: "already allocated",
		},
		{
			name: "reject ID colliding with a live container",
			setup: func(t *testing.T, c *cluster.Cluster) (*lra.Application, *lra.Placement, []constraint.Entry) {
				if err := c.Allocate(2, cluster.MakeContainerID("a", 0), small, nil); err != nil {
					t.Fatal(err)
				}
				app := testApp("a", 1, small, "svc")
				return app, placementFor(app, 0), nil
			},
			wantErr: "already allocated",
		},
		{
			name: "reject unhealthy target node",
			setup: func(t *testing.T, c *cluster.Cluster) (*lra.Application, *lra.Placement, []constraint.Entry) {
				c.SetAvailable(1, false)
				app := testApp("a", 2, small, "svc")
				return app, placementFor(app, 0, 1), nil
			},
			wantErr: "down node",
		},
		{
			name: "reject unknown target node",
			setup: func(t *testing.T, c *cluster.Cluster) (*lra.Application, *lra.Placement, []constraint.Entry) {
				app := testApp("a", 1, small, "svc")
				return app, placementFor(app, 99), nil
			},
			wantErr: "unknown node",
		},
		{
			name: "reject hard anti-affinity violation",
			setup: func(t *testing.T, c *cluster.Cluster) (*lra.Application, *lra.Placement, []constraint.Entry) {
				app := testApp("a", 2, small, "svc")
				app.Constraints = []constraint.Constraint{
					constraint.Weighted(constraint.AntiAffinity(
						constraint.E("svc"), constraint.E("svc"), constraint.Node), DefaultHardWeight),
				}
				ents := []constraint.Entry{hardEntry("a", constraint.AntiAffinity(
					constraint.E("svc"), constraint.E("svc"), constraint.Node))}
				return app, placementFor(app, 0, 0), ents // both on node 0
			},
			wantErr: "hard constraint violated",
		},
		{
			name: "accept anti-affinity when spread",
			setup: func(t *testing.T, c *cluster.Cluster) (*lra.Application, *lra.Placement, []constraint.Entry) {
				app := testApp("a", 2, small, "svc")
				ents := []constraint.Entry{hardEntry("a", constraint.AntiAffinity(
					constraint.E("svc"), constraint.E("svc"), constraint.Node))}
				return app, placementFor(app, 0, 1), ents
			},
		},
		{
			name: "reject hard cardinality overflow",
			setup: func(t *testing.T, c *cluster.Cluster) (*lra.Application, *lra.Placement, []constraint.Entry) {
				app := testApp("a", 3, small, "svc")
				ents := []constraint.Entry{hardEntry("a", constraint.MaxCardinality(
					constraint.E("svc"), constraint.E("svc"), 1, constraint.Node))}
				return app, placementFor(app, 0, 0, 0), ents // 3 peers on node 0, max 1
			},
			wantErr: "hard constraint violated",
		},
		{
			name: "accept cardinality within bound",
			setup: func(t *testing.T, c *cluster.Cluster) (*lra.Application, *lra.Placement, []constraint.Entry) {
				app := testApp("3wide", 3, small, "svc")
				ents := []constraint.Entry{hardEntry("3wide", constraint.MaxCardinality(
					constraint.E("svc"), constraint.E("svc"), 2, constraint.Node))}
				return app, placementFor(app, 0, 0, 1), ents // 2 peers max per node
			},
		},
		{
			name: "soft constraint violation is not rejected",
			setup: func(t *testing.T, c *cluster.Cluster) (*lra.Application, *lra.Placement, []constraint.Entry) {
				app := testApp("a", 2, small, "svc")
				ents := []constraint.Entry{{
					AppID: "a", Source: constraint.SourceApplication,
					Constraint: constraint.New(constraint.AntiAffinity(
						constraint.E("svc"), constraint.E("svc"), constraint.Node)),
				}}
				return app, placementFor(app, 0, 0), ents // violates, but weight 1 < hard
			},
		},
		{
			name: "reject hard violation inflicted on a deployed container",
			setup: func(t *testing.T, c *cluster.Cluster) (*lra.Application, *lra.Placement, []constraint.Entry) {
				// A deployed "db" wants to be alone on its node; the new
				// app's containers land next to it.
				if err := c.Allocate(0, "db#0", small, []constraint.Tag{"db"}); err != nil {
					t.Fatal(err)
				}
				ents := []constraint.Entry{hardEntry("db", constraint.AntiAffinity(
					constraint.E("db"), constraint.E("svc"), constraint.Node))}
				app := testApp("a", 1, small, "svc")
				return app, placementFor(app, 0), ents
			},
			wantErr: "hard constraint violated",
		},
		{
			name: "pre-existing hard violation does not block unrelated placement",
			setup: func(t *testing.T, c *cluster.Cluster) (*lra.Application, *lra.Placement, []constraint.Entry) {
				// Two "svc" already colliding on node 0 (violation predates
				// the audit); placing elsewhere must still be allowed.
				for i := 0; i < 2; i++ {
					if err := c.Allocate(0, cluster.MakeContainerID("old", i), small, []constraint.Tag{"svc"}); err != nil {
						t.Fatal(err)
					}
				}
				ents := []constraint.Entry{hardEntry("old", constraint.AntiAffinity(
					constraint.E("svc"), constraint.E("svc"), constraint.Node))}
				app := testApp("a", 1, small, "other")
				return app, placementFor(app, 1), ents
			},
		},
		{
			name: "reject wrong per-group count",
			setup: func(t *testing.T, c *cluster.Cluster) (*lra.Application, *lra.Placement, []constraint.Entry) {
				app := testApp("a", 2, small, "svc")
				p := placementFor(app, 0, 1)
				p.Assignments = p.Assignments[:1] // one container short
				return app, p, nil
			},
			wantErr: "want 2",
		},
		{
			name: "reject under-reported demand",
			setup: func(t *testing.T, c *cluster.Cluster) (*lra.Application, *lra.Placement, []constraint.Entry) {
				app := testApp("a", 1, resource.New(600, 6), "svc")
				p := placementFor(app, 0)
				p.Assignments[0].Demand = resource.New(1, 1) // lies about size
				return app, p, nil
			},
			wantErr: "demand",
		},
		{
			name: "reject unknown group",
			setup: func(t *testing.T, c *cluster.Cluster) (*lra.Application, *lra.Placement, []constraint.Entry) {
				app := testApp("a", 1, small, "svc")
				p := placementFor(app, 0)
				p.Assignments[0].Group = "ghost"
				return app, p, nil
			},
			wantErr: "unknown group",
		},
		{
			name: "unplaced proposal passes vacuously",
			setup: func(t *testing.T, c *cluster.Cluster) (*lra.Application, *lra.Placement, []constraint.Entry) {
				app := testApp("a", 1, small, "svc")
				return app, &lra.Placement{AppID: "a", Placed: false}, nil
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := cluster.Grid(4, 2, resource.New(1000, 10))
			app, p, ents := tc.setup(t, c)
			err := CheckPlacement(c, app, p, ents)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("CheckPlacement() = %v, want accept", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("CheckPlacement() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("CheckPlacement() = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestCheckPlacementDoesNotMutate verifies validation happens on a clone.
func TestCheckPlacementDoesNotMutate(t *testing.T) {
	c := cluster.Grid(2, 2, resource.New(1000, 10))
	app := testApp("a", 1, resource.New(100, 1), "svc")
	if err := CheckPlacement(c, app, placementFor(app, 0), nil); err != nil {
		t.Fatal(err)
	}
	if got := c.NumContainers(); got != 0 {
		t.Fatalf("validation leaked %d containers into live state", got)
	}
	if !c.TotalUsed().IsZero() {
		t.Fatalf("validation charged live state: %v", c.TotalUsed())
	}
}

type fakeQueues struct {
	names []string
	used  map[string]resource.Vector
}

func (f fakeQueues) Queues() []string                   { return f.names }
func (f fakeQueues) QueueUsed(n string) resource.Vector { return f.used[n] }

func TestCheckCluster(t *testing.T) {
	c := cluster.Grid(2, 2, resource.New(1000, 10))
	if err := c.Allocate(0, "a#0", resource.New(100, 1), nil); err != nil {
		t.Fatal(err)
	}
	q := fakeQueues{names: []string{"prod"}, used: map[string]resource.Vector{"prod": resource.New(10, 1)}}
	known := func(id string) bool { return id == "a" }
	if err := CheckCluster(c, q, []string{"a"}, known); err != nil {
		t.Fatalf("CheckCluster() = %v, want nil", err)
	}
	if err := CheckCluster(c, q, []string{"ghost"}, known); err == nil ||
		!strings.Contains(err.Error(), "unknown application") {
		t.Fatalf("CheckCluster() = %v, want registry error", err)
	}
	q.used["prod"] = resource.New(-5, 0)
	if err := CheckCluster(c, q, nil, nil); err == nil ||
		!strings.Contains(err.Error(), "negative usage") {
		t.Fatalf("CheckCluster() = %v, want queue error", err)
	}
}

func TestParseMode(t *testing.T) {
	for in, want := range map[string]Mode{
		"off": Off, "": Off, "metrics": Metrics, "failfast": FailFast, "fail-fast": FailFast,
	} {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode(bogus) = nil error")
	}
	if got := FailFast.String(); got != "failfast" {
		t.Errorf("FailFast.String() = %q", got)
	}
}

func TestHardEntries(t *testing.T) {
	soft := constraint.Entry{Constraint: constraint.New(constraint.AntiAffinity(
		constraint.E("a"), constraint.E("a"), constraint.Node))}
	hard := hardEntry("x", constraint.AntiAffinity(constraint.E("b"), constraint.E("b"), constraint.Node))
	got := HardEntries([]constraint.Entry{soft, hard})
	if len(got) != 1 || got[0].AppID != "x" {
		t.Fatalf("HardEntries kept %v, want only the hard entry", got)
	}
}

// TestHardVerdictsOn256Nodes pins the hard-constraint verdicts of
// CheckAssignments on a populated 256-node state: a weight-100 node
// anti-affinity, an operator override that only conflict resolution
// makes binding, and a violation that predates the batch. The hard
// entries are resolved once per call; the verdicts must be those of
// resolving them per container.
func TestHardVerdictsOn256Nodes(t *testing.T) {
	small := resource.New(100, 1)
	c := cluster.Grid(256, 8, resource.New(16384, 8))
	for i := 0; i < 256; i++ {
		if err := c.Allocate(cluster.NodeID(i), cluster.MakeContainerID("bg", i), small, []constraint.Tag{"bg"}); err != nil {
			t.Fatal(err)
		}
	}
	// Two "db" containers already share node 7: a violation the batch
	// did not cause and must not be blamed for.
	for _, id := range []cluster.ContainerID{"db#0", "db#1"} {
		if err := c.Allocate(7, id, small, []constraint.Tag{"db"}); err != nil {
			t.Fatal(err)
		}
	}
	spread := hardEntry("db", constraint.AntiAffinity(constraint.E("db"), constraint.E("db"), constraint.Node))
	// The application allows up to 3 "web" per rack; the operator's
	// tighter (0,1) replaces those bounds when conflicts are resolved.
	appWeb := hardEntry("web", constraint.MaxCardinality(constraint.E("web"), constraint.E("web"), 3, constraint.Rack))
	opWeb := constraint.Entry{Source: constraint.SourceOperator,
		Constraint: constraint.Weighted(constraint.MaxCardinality(constraint.E("web"), constraint.E("web"), 1, constraint.Rack), DefaultHardWeight)}
	entries := []constraint.Entry{spread, spread, appWeb, opWeb} // the duplicate is deduplicated

	assign := func(app string, tag constraint.Tag, nodes ...cluster.NodeID) []lra.Assignment {
		var out []lra.Assignment
		for i, n := range nodes {
			out = append(out, lra.Assignment{Container: cluster.MakeContainerID(app, i), Node: n, Demand: small, Tags: []constraint.Tag{tag}})
		}
		return out
	}
	cases := []struct {
		name    string
		assigns []lra.Assignment
		reject  bool
	}{
		{"db on distinct free nodes", assign("d2", "db", 20, 21, 22), false},
		{"db twice on one node", assign("d2", "db", 20, 20), true},
		{"db next to a deployed db on a clean node", assign("d2", "db", 7), true}, // db#0/db#1 were violating already, the newcomer was not
		{"two web in one rack", assign("w", "web", 8, 9), false},
		{"three web in one rack: the operator's bound binds", assign("w", "web", 8, 9, 10), true},
		{"three web across racks", assign("w", "web", 8, 16, 24), false},
	}
	for _, tc := range cases {
		err := CheckAssignments(c, "batch", tc.assigns, entries)
		if (err != nil) != tc.reject {
			t.Errorf("%s: reject=%v, got %v", tc.name, tc.reject, err)
		}
		if err != nil && !strings.Contains(err.Error(), "hard constraint violated") {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
	}
}
