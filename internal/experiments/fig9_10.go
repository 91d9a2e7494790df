package experiments

import (
	"fmt"

	"medea/internal/cluster"
	"medea/internal/metrics"
	"medea/internal/sim"
	"medea/internal/workload"
)

// fig9Cluster is the §7.4 simulated setting: 500 machines (8 cores, 16 GB)
// in 10 racks, scaled by Options.Scale.
func fig9Cluster(o Options) *cluster.Cluster {
	nodes := o.scaled(500, 80)
	return cluster.Grid(nodes, nodes/10, SimNodeCapacity)
}

// RunFig9a reproduces Figure 9a: constraint violations while the fraction
// of cluster memory running LRAs sweeps 10%→90% (HBase instances with the
// §7.1 constraint templates, two LRAs considered per scheduling cycle).
func RunFig9a(o Options) *metrics.Table {
	o = o.withDefaults()
	tab := metrics.NewTable("Figure 9a: constraint violations vs LRA utilization (%)",
		header9()...)
	for _, util := range []float64{0.10, 0.30, 0.50, 0.70, 0.90} {
		row := []any{fmt.Sprintf("%.0f%%", util*100)}
		for _, alg := range comparedAlgorithms() {
			c := fig9Cluster(o)
			apps := appsForUtilization(c, util, fmt.Sprintf("f9a%.0f", util*100))
			m, _ := deployInBatches(c, alg, apps, 2, o)
			row = append(row, violationPct(m))
		}
		tab.AddRow(row...)
	}
	return tab
}

// RunFig9b reproduces Figure 9b: LRAs hold steady at 10% utilisation while
// short task load sweeps 10%→60%.
func RunFig9b(o Options) *metrics.Table {
	o = o.withDefaults()
	tab := metrics.NewTable("Figure 9b: constraint violations vs task-based utilization (%)",
		header9()...)
	for _, taskUtil := range []float64{0.10, 0.20, 0.30, 0.40, 0.50, 0.60} {
		row := []any{fmt.Sprintf("%.0f%%", taskUtil*100)}
		for _, alg := range comparedAlgorithms() {
			c := fig9Cluster(o)
			preloadTasks(c, taskUtil, o.Seed)
			apps := appsForUtilization(c, 0.10, fmt.Sprintf("f9b%.0f", taskUtil*100))
			m, _ := deployInBatches(c, alg, apps, 2, o)
			row = append(row, violationPct(m))
		}
		tab.AddRow(row...)
	}
	return tab
}

// RunFig9c reproduces Figure 9c: the scheduling interval sweeps so that
// 1–6 LRAs are considered per scheduler invocation (periodicity), at 10%
// LRA utilisation. Batching multiple LRAs is what lets Medea satisfy
// inter-application constraints.
func RunFig9c(o Options) *metrics.Table {
	o = o.withDefaults()
	tab := metrics.NewTable("Figure 9c: constraint violations vs periodicity (%)",
		header9()...)
	for _, per := range []int{1, 2, 3, 4, 5, 6} {
		row := []any{per}
		for _, alg := range comparedAlgorithms() {
			c := fig9Cluster(o)
			preloadTasks(c, 0.78, o.Seed) // uneven load creates capacity corners
			// Inter-application collocation chains make periodicity matter.
			apps := workload.InterAppBatch(sim.RNG(o.Seed, "f9c"), o.scaled(24, 8), 6, 3,
				fmt.Sprintf("f9c%d", per))
			m, _ := deployInBatches(c, alg, apps, per, o)
			row = append(row, violationPct(m))
		}
		tab.AddRow(row...)
	}
	return tab
}

// RunFig9d reproduces Figure 9d: inter-application constraints of growing
// complexity — complexity X involves constraints spanning up to X LRAs.
func RunFig9d(o Options) *metrics.Table {
	o = o.withDefaults()
	tab := metrics.NewTable("Figure 9d: constraint violations vs constraint complexity (%)",
		header9()...)
	for _, cx := range []int{1, 2, 4, 6, 8, 10} {
		row := []any{cx}
		for _, alg := range comparedAlgorithms() {
			c := fig9Cluster(o)
			preloadTasks(c, 0.78, o.Seed)
			apps := workload.InterAppBatch(sim.RNG(o.Seed, "f9d"), 10, 6, cx,
				fmt.Sprintf("f9d%d", cx))
			// The paper schedules with enough batching that interacting
			// LRAs can meet; keep periodicity 2 as in Fig 9a.
			m, _ := deployInBatches(c, alg, apps, 2, o)
			row = append(row, violationPct(m))
		}
		tab.AddRow(row...)
	}
	return tab
}

// Fig10Result carries the two sub-figures of Figure 10.
type Fig10Result struct {
	Fragmentation *metrics.Table // Fig 10a
	LoadBalance   *metrics.Table // Fig 10b
}

// Tables returns the sub-figure tables in order.
func (r Fig10Result) Tables() []*metrics.Table {
	return []*metrics.Table{r.Fragmentation, r.LoadBalance}
}

// RunFig10 reproduces Figure 10: resource fragmentation (a) and load
// balance (b) under the Figure-9a sweep.
func RunFig10(o Options) Fig10Result {
	o = o.withDefaults()
	res := Fig10Result{
		Fragmentation: metrics.NewTable("Figure 10a: nodes with resource fragmentation (%)", header9()...),
		LoadBalance:   metrics.NewTable("Figure 10b: CV of node memory utilization (%)", header9()...),
	}
	for _, util := range []float64{0.10, 0.30, 0.50, 0.70, 0.90} {
		fragRow := []any{fmt.Sprintf("%.0f%%", util*100)}
		cvRow := []any{fmt.Sprintf("%.0f%%", util*100)}
		for _, alg := range comparedAlgorithms() {
			c := fig9Cluster(o)
			apps := appsForUtilization(c, util, fmt.Sprintf("f10%.0f", util*100))
			m, _ := deployInBatches(c, alg, apps, 2, o)
			fragRow = append(fragRow, 100*m.Cluster.FragmentedNodeFraction())
			cvRow = append(cvRow, 100*m.Cluster.MemoryUtilizationCV())
		}
		res.Fragmentation.AddRow(fragRow...)
		res.LoadBalance.AddRow(cvRow...)
	}
	return res
}

func header9() []string {
	hdr := []string{"x"}
	for _, alg := range comparedAlgorithms() {
		hdr = append(hdr, alg.Name())
	}
	return hdr
}
