package experiments

import (
	"fmt"
	"time"

	"medea/internal/chaos"
	"medea/internal/cluster"
	"medea/internal/failure"
	"medea/internal/lra"
	"medea/internal/metrics"
	"medea/internal/sim"
	"medea/internal/workload"
)

// RunFig8Live is the live-recovery companion of Figure 8. Where RunFig8
// scores static placements against an offline unavailability trace, this
// experiment actually fails the nodes while the scheduler runs: the same
// synthetic SU churn is replayed through the chaos injector against a
// live Medea (and a J-Kube-style baseline), evicting containers and
// letting the recovery loop re-place them. Each row reports what was
// evicted, repaired and abandoned, the repair MTTR and maximum, the
// degraded time summed over LRAs with the availability it leaves, and
// Figure 8's own metric read live: per LRA, the largest fraction of its
// containers lost at once, as p50, p90 and max over the deployed LRAs.
// That depth is sampled just before every tick, from the scheduler's
// deployed container counts: losses land only between ticks and repairs
// only inside them, so the sample before a tick sees each outage at its
// deepest. EXPERIMENTS.md records which scheduler the rows favour.
func RunFig8Live(o Options) *metrics.Table {
	o = o.withDefaults()
	sus := o.scaled(25, 5)
	nodes := o.scaled(500, sus*4)
	nodes = (nodes / sus) * sus // equal SU sizes
	containersPerLRA := o.scaled(100, 20)
	numLRAs := o.scaled(10, 4)
	hours := o.scaled(96, 24)
	// SpikeStartProb is raised over the Figure-3 default so the shortened
	// trace still contains correlated SU events to recover from.
	tr := failure.Generate(sim.RNG(o.Seed, "fig8live"), failure.Config{
		ServiceUnits: sus, Hours: hours, SpikeStartProb: 0.05,
	})

	const (
		interval = 10 * time.Second
		hourDur  = time.Minute // virtual time per trace hour
	)
	span := time.Duration(hours) * hourDur

	tab := metrics.NewTable("Figure 8 (live): LRA recovery under replayed SU churn",
		"scheduler", "evicted", "repaired", "abandoned", "repair MTTR", "max repair", "degraded time", "avail %",
		"depth p50 %", "depth p90 %", "depth max %")
	for _, alg := range []lra.Algorithm{lra.NewILP(), lra.NewJKube()} {
		c := cluster.Grid(nodes, nodes/10, SimNodeCapacity)
		if err := failure.RegisterServiceUnits(c, sus); err != nil {
			panic(err) // unreachable: nodes is a multiple of sus
		}
		preloadTasks(c, 0.45, o.Seed)
		apps := make([]*lra.Application, numLRAs)
		for i := range apps {
			apps[i] = workload.ResilienceApp(fmt.Sprintf("live-%02d", i), containersPerLRA)
			a, _ := apps[i].Constraints[0].Simple()
			a.Max = containersPerLRA/sus + 1
			apps[i].Constraints[0] = lraConstraint(a)
		}
		m, _ := deployInBatches(c, alg, apps, 2, o)

		eng := sim.NewEngine(sim.Epoch.Add(time.Hour))   // churn starts after deployment
		end := eng.Now().Add(span).Add(10 * time.Minute) // + drain window for last repairs
		// worst[i] is the largest lost fraction of sampled[i] any sample
		// saw, in percent; an app the deployment left unplaced is not
		// sampled.
		var sampled []*lra.Application
		for _, a := range apps {
			if _, ok := m.Deployed(a.ID); ok {
				sampled = append(sampled, a)
			}
		}
		worst := make([]float64, len(sampled))
		eng.Every(eng.Now(), interval, func(now time.Time) bool {
			for i, a := range sampled {
				ids, _ := m.Deployed(a.ID)
				worst[i] = max(worst[i], 100*(1-float64(len(ids))/float64(a.NumContainers())))
			}
			m.Tick(now)
			return now.Before(end)
		})
		// Start the replay 3s off the tick grid: real failures do not
		// arrive aligned to cycle boundaries, and perfectly aligned events
		// would report a zero eviction-to-repair gap.
		eng.At(eng.Now().Add(3*time.Second), func(time.Time) {
			if _, err := chaos.ReplayTrace(eng, m, c, tr, hourDur); err != nil {
				panic(err) // unreachable: SUs registered above
			}
		})
		eng.Run(0)

		r := &m.Recovery
		availPct := 100.0
		if numLRAs > 0 && span > 0 {
			availPct = 100 * (1 - r.TotalDegraded().Seconds()/(float64(numLRAs)*span.Seconds()))
		}
		tab.AddRow(alg.Name(), r.Evictions, r.RepairsPlaced, r.RepairsAbandoned,
			r.MTTR().Round(time.Millisecond), r.MaxRepairLatency().Round(time.Millisecond),
			r.TotalDegraded().Round(time.Second), fmt.Sprintf("%.2f", availPct),
			metrics.Percentile(worst, 50), metrics.Percentile(worst, 90), metrics.Percentile(worst, 100))
	}
	return tab
}
