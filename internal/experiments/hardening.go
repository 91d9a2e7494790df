package experiments

import (
	"fmt"
	"time"

	"medea/internal/audit"
	"medea/internal/chaos"
	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/core"
	"medea/internal/lra"
	"medea/internal/metrics"
	"medea/internal/resource"
	"medea/internal/sim"
)

// RunHardening exercises the pipeline defenses end-to-end: the configured
// ILP is wrapped in a byzantine fault injector (panics, over-capacity and
// duplicate-ID placements, down-node targets, truncated batches, budget
// exhaustion) while a stream of constrained LRAs arrives. With the
// circuit breaker enabled, failed cycles trip onto the heuristic ladder
// and scheduling keeps making progress; with it disabled, every faulty
// cycle is wasted. Both rows run with commit-time validation (always on)
// and the whole-cluster invariant auditor in fail-fast mode, so a single
// invalid commit would abort the experiment — the rows existing at all is
// the "never commit corrupted state" claim. After the chaos window the
// injector heals and the breaker row must return to the configured
// algorithm through a half-open probe.
func RunHardening(o Options) *metrics.Table {
	o = o.withDefaults()
	nodes := o.scaled(100, 12)
	chaosCycles := o.scaled(60, 24)
	healCycles := o.scaled(20, 10)

	tab := metrics.NewTable("Pipeline hardening: byzantine algorithm, breaker on vs off",
		"breaker", "cycles", "deployed@chaos", "deployed", "panics", "rejects",
		"exhaustions", "trips", "reopens", "resets", "degraded", "final alg")
	for _, withBreaker := range []bool{true, false} {
		c := cluster.Grid(nodes, 10, SimNodeCapacity)
		// Every call misbehaves during the chaos window — a genuinely
		// broken solver, not an occasional glitch: occasional faults are
		// absorbed by requeue/retry alone and never trip the breaker
		// (failures must be consecutive).
		byz := &chaos.Byzantine{Inner: lra.NewILP(), Every: 1}
		threshold := 3
		if !withBreaker {
			threshold = -1
		}
		m := core.New(c, byz, core.Config{
			SolverBudget:     o.SolverBudget,
			MaxRetries:       8,
			Audit:            audit.FailFast,
			BreakerThreshold: threshold,
			BreakerCooldown:  3,
		})
		now := sim.Epoch
		// One dead node gives the down-node fault a real target.
		m.FailNode(cluster.NodeID(nodes-1), now)
		rng := sim.RNG(o.Seed, "hardening")
		i := 0
		submit := func() {
			app := &lra.Application{
				ID: fmt.Sprintf("svc-%03d", i),
				Groups: []lra.ContainerGroup{{
					Name:   "w",
					Count:  2 + rng.Intn(3),
					Demand: resource.New(1024, 1),
					Tags:   []constraint.Tag{"svc"},
				}},
				// A hard per-node cap: any pile-on proposal violates it, so
				// commit-time validation rejects every corrupt placement
				// instead of letting early ones slip through on spare
				// capacity.
				Constraints: []constraint.Constraint{
					constraint.Weighted(constraint.CardinalityRange(
						constraint.E("svc"), constraint.E("svc"), 0, 8, constraint.Node),
						audit.DefaultHardWeight),
				},
			}
			if err := m.SubmitLRA(app, now); err != nil {
				panic(fmt.Sprintf("hardening: submit: %v", err))
			}
			i++
		}
		for cyc := 0; cyc < chaosCycles; cyc++ {
			submit()
			now = now.Add(10 * time.Second)
			m.RunCycle(now)
		}
		deployedDuringChaos := m.DeployedLRAs()
		byz.Every = 0 // the algorithm heals
		var last core.CycleStats
		for cyc := 0; cyc < healCycles; cyc++ {
			submit()
			now = now.Add(10 * time.Second)
			last = m.RunCycle(now)
		}
		if err := m.CheckInvariants(); err != nil {
			panic(fmt.Sprintf("hardening: invariants violated: %v", err))
		}
		p := &m.Pipeline
		tab.AddRow(onOff(withBreaker), chaosCycles+healCycles, deployedDuringChaos,
			m.DeployedLRAs(), p.Get(metrics.PanicsRecovered), p.Get(metrics.ValidationRejects),
			p.Get(metrics.SolverExhaustions), p.Get(metrics.BreakerTrips), p.Get(metrics.BreakerReopens),
			p.Get(metrics.BreakerResets), p.Get(metrics.DegradedCycles), last.Algorithm)
	}
	return tab
}

func onOff(b bool) string {
	if b {
		return "on"
	}
	return "off"
}
