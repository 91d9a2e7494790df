package failure

import (
	"testing"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/resource"
	"medea/internal/sim"
)

// genTrace generates the Figure-3/Figure-8 setting: 25 SUs over 15 days,
// the rest of the Config at its defaults.
func genTrace() *Trace {
	return Generate(sim.RNG(11, "failure"), Config{ServiceUnits: 25, Hours: 360})
}

// TestTraceProperties checks the three Figure-3 observations.
func TestTraceProperties(t *testing.T) {
	tr := genTrace()
	if tr.Hours != 360 || tr.SUs != 25 {
		t.Fatalf("shape = %dx%d", tr.Hours, tr.SUs)
	}
	// (i) Usually below 3%.
	below, total := 0, 0
	for h := 0; h < tr.Hours; h++ {
		for s := 0; s < tr.SUs; s++ {
			total++
			if tr.Fraction(h, s) < 0.03 {
				below++
			}
		}
	}
	if frac := float64(below) / float64(total); frac < 0.8 {
		t.Errorf("only %.0f%% of SU-hours below 3%%; want mostly calm", frac*100)
	}
	// (ii) Spikes exist and can reach 25%+.
	maxSpike := 0.0
	for h := 0; h < tr.Hours; h++ {
		for s := 0; s < tr.SUs; s++ {
			maxSpike = max(maxSpike, tr.Fraction(h, s))
		}
	}
	if maxSpike < 0.25 {
		t.Errorf("max spike = %v, want >= 0.25", maxSpike)
	}
	// (iii) Asynchronous failure: when one SU spikes hard, the total stays
	// far lower.
	asyncOK := false
	for h := 0; h < tr.Hours; h++ {
		for s := 0; s < tr.SUs; s++ {
			if tr.Fraction(h, s) >= 0.5 && tr.Total(h) < tr.Fraction(h, s)/3 {
				asyncOK = true
			}
		}
	}
	if !asyncOK {
		t.Error("no hour exhibits asynchronous SU failure")
	}
}

func TestTraceBounds(t *testing.T) {
	tr := genTrace()
	for h := 0; h < tr.Hours; h++ {
		tot := tr.Total(h)
		if tot < 0 || tot > 1 {
			t.Fatalf("total out of range: %v", tot)
		}
		for s := 0; s < tr.SUs; s++ {
			f := tr.Fraction(h, s)
			if f < 0 || f > 1 {
				t.Fatalf("fraction out of range: %v", f)
			}
		}
	}
}

func TestRegisterServiceUnits(t *testing.T) {
	c := cluster.Grid(100, 10, resource.New(8192, 8))
	if err := RegisterServiceUnits(c, 5); err != nil {
		t.Fatal(err)
	}
	if got := c.NumSets(constraint.ServiceUnit); got != 5 {
		t.Fatalf("SUs = %d", got)
	}
	seen := map[cluster.NodeID]bool{}
	for s := 0; s < 5; s++ {
		members := c.SetMembers(constraint.ServiceUnit, cluster.SetID(s))
		if len(members) != 20 {
			t.Errorf("SU %d size = %d, want 20", s, len(members))
		}
		for _, n := range members {
			if seen[n] {
				t.Errorf("node %d in two SUs", n)
			}
			seen[n] = true
		}
	}
	if err := RegisterServiceUnits(c, 0); err == nil {
		t.Error("0 SUs accepted")
	}
	if err := RegisterServiceUnits(cluster.Grid(2, 2, resource.New(1, 1)), 5); err == nil {
		t.Error("more SUs than nodes accepted")
	}
}

func TestDownNodesDeterministic(t *testing.T) {
	tr := genTrace()
	members := make([]cluster.NodeID, 40)
	for i := range members {
		members[i] = cluster.NodeID(i)
	}
	// Find an hour/su with a noticeable fraction.
	for h := 0; h < tr.Hours; h++ {
		for s := 0; s < tr.SUs; s++ {
			if tr.Fraction(h, s) >= 0.25 {
				a := tr.DownNodes(h, s, members)
				b := tr.DownNodes(h, s, members)
				if len(a) != len(b) {
					t.Fatal("non-deterministic down set size")
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatal("non-deterministic down set")
					}
				}
				want := int(tr.Fraction(h, s)*40 + 0.5)
				if len(a) != want {
					t.Errorf("down = %d, want %d", len(a), want)
				}
				return
			}
		}
	}
	t.Skip("no spike in trace (unexpected with default config)")
}

func TestUnavailabilityPerLRA(t *testing.T) {
	c := cluster.Grid(50, 10, resource.New(8192, 8))
	if err := RegisterServiceUnits(c, 5); err != nil {
		t.Fatal(err)
	}
	// Place app "spread" across SUs (one container per SU) and app
	// "clumped" entirely in SU 0.
	containers := map[string][]cluster.ContainerID{}
	for s := 0; s < 5; s++ {
		id := cluster.MakeContainerID("spread", s)
		node := c.SetMembers(constraint.ServiceUnit, cluster.SetID(s))[0]
		if err := c.Allocate(node, id, resource.New(1024, 1), nil); err != nil {
			t.Fatal(err)
		}
		containers["spread"] = append(containers["spread"], id)
	}
	su0 := c.SetMembers(constraint.ServiceUnit, 0)
	for i := 0; i < 5; i++ {
		id := cluster.MakeContainerID("clumped", i)
		if err := c.Allocate(su0[i+1], id, resource.New(1024, 1), nil); err != nil {
			t.Fatal(err)
		}
		containers["clumped"] = append(containers["clumped"], id)
	}
	// Synthetic trace where SU 0 is fully down at hour 0.
	tr := &Trace{Hours: 1, SUs: 5, frac: [][]float64{{1, 0, 0, 0, 0}}}
	got := tr.UnavailabilityPerLRA(c, 0, containers)
	if got["clumped"] != 1.0 {
		t.Errorf("clumped unavailability = %v, want 1.0", got["clumped"])
	}
	if got["spread"] != 0.2 {
		t.Errorf("spread unavailability = %v, want 0.2", got["spread"])
	}
}
