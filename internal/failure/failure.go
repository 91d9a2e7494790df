// Package failure models machine unavailability in large clusters (§2.3,
// Figure 3): clusters are split into service units (SUs) — node groups
// accounting for both upgrades and failures — and unavailability exhibits
// three properties the paper observes in Microsoft production data:
//
//  1. per-SU unavailability is usually below ~3%;
//  2. unavailability is strongly correlated *within* an SU (spikes take
//     out 25%, or even 100%, of an SU at once);
//  3. SUs fail asynchronously (when one SU is 100% down, the cluster
//     total stays low, e.g. 8%).
//
// Since the paper's production traces are proprietary, Generate creates a
// synthetic trace reproducing those properties; Figure 8's resilience
// evaluation replays it against container placements.
package failure

import (
	"fmt"
	"math/rand"

	"medea/internal/cluster"
	"medea/internal/constraint"
)

// Config shapes a synthetic unavailability trace.
type Config struct {
	// ServiceUnits is the number of SUs (paper: 25 in §7.3).
	ServiceUnits int
	// Hours is the trace length (paper: 15 days = 360 hours for Fig 8,
	// 4 days = 96 hours for Fig 3).
	Hours int
	// BaselineMean is the mean background per-SU unavailable fraction
	// (default 0.01).
	BaselineMean float64
	// SpikeStartProb is the per-SU-per-hour probability that a correlated
	// failure/upgrade event starts (default 0.01).
	SpikeStartProb float64
	// SpikeMeanHours is the mean spike duration (default 4).
	SpikeMeanHours float64
}

func (c Config) withDefaults() Config {
	if c.BaselineMean == 0 {
		c.BaselineMean = 0.01
	}
	if c.SpikeStartProb == 0 {
		c.SpikeStartProb = 0.01
	}
	if c.SpikeMeanHours == 0 {
		c.SpikeMeanHours = 4
	}
	return c
}

// Trace holds per-hour, per-SU unavailable fractions.
type Trace struct {
	Hours int
	SUs   int
	frac  [][]float64 // [hour][su]
}

// Generate creates a synthetic trace with the three observed properties.
func Generate(rng *rand.Rand, cfg Config) *Trace {
	cfg = cfg.withDefaults()
	t := &Trace{Hours: cfg.Hours, SUs: cfg.ServiceUnits}
	t.frac = make([][]float64, cfg.Hours)
	// Per-SU spike state: remaining hours and magnitude.
	remain := make([]int, cfg.ServiceUnits)
	magnitude := make([]float64, cfg.ServiceUnits)
	for h := 0; h < cfg.Hours; h++ {
		row := make([]float64, cfg.ServiceUnits)
		for s := 0; s < cfg.ServiceUnits; s++ {
			if remain[s] == 0 && rng.Float64() < cfg.SpikeStartProb {
				// A correlated event starts: upgrades commonly take 25%
				// or 50% of an SU; occasionally the whole SU goes down.
				switch rng.Intn(4) {
				case 0:
					magnitude[s] = 1.0
				case 1:
					magnitude[s] = 0.5
				default:
					magnitude[s] = 0.25
				}
				remain[s] = 1 + int(rng.ExpFloat64()*cfg.SpikeMeanHours)
			}
			base := cfg.BaselineMean * (0.5 + rng.Float64())
			f := base
			if remain[s] > 0 {
				f = magnitude[s]
				remain[s]--
			}
			if f > 1 {
				f = 1
			}
			row[s] = f
		}
		t.frac[h] = row
	}
	return t
}

// Fraction returns the unavailable fraction of an SU at an hour.
func (t *Trace) Fraction(hour, su int) float64 { return t.frac[hour][su] }

// Total returns the cluster-wide unavailable fraction at an hour, assuming
// equal-sized SUs.
func (t *Trace) Total(hour int) float64 {
	sum := 0.0
	for _, f := range t.frac[hour] {
		sum += f
	}
	return sum / float64(t.SUs)
}

// RegisterServiceUnits partitions a cluster's nodes into n equal service
// units and registers them as the predefined "service_unit" node group.
func RegisterServiceUnits(c *cluster.Cluster, n int) error {
	if n <= 0 || n > c.NumNodes() {
		return fmt.Errorf("failure: cannot split %d nodes into %d service units", c.NumNodes(), n)
	}
	sets := make([][]cluster.NodeID, n)
	for i := 0; i < c.NumNodes(); i++ {
		su := i * n / c.NumNodes()
		sets[su] = append(sets[su], cluster.NodeID(i))
	}
	return c.RegisterGroup(constraint.ServiceUnit, sets)
}

// DownNodes returns the nodes of an SU that are unavailable at an hour,
// deterministically pseudo-random per (hour, su) so replays agree.
func (t *Trace) DownNodes(hour, su int, members []cluster.NodeID) []cluster.NodeID {
	f := t.Fraction(hour, su)
	k := int(f*float64(len(members)) + 0.5)
	if k == 0 {
		return nil
	}
	if k >= len(members) {
		return append([]cluster.NodeID(nil), members...)
	}
	perm := append([]cluster.NodeID(nil), members...)
	r := rand.New(rand.NewSource(int64(hour)*2654435761 + int64(su)*40503 + 17))
	r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	return perm[:k]
}

// UnavailabilityPerLRA computes, for one hour, the fraction of each LRA's
// containers that sit on unavailable machines — the Figure-8 metric takes
// the per-hour maximum across LRAs.
func (t *Trace) UnavailabilityPerLRA(c *cluster.Cluster, hour int, lraContainers map[string][]cluster.ContainerID) map[string]float64 {
	down := make(map[cluster.NodeID]bool)
	for su := 0; su < t.SUs; su++ {
		members := c.SetMembers(constraint.ServiceUnit, cluster.SetID(su))
		for _, n := range t.DownNodes(hour, su, members) {
			down[n] = true
		}
	}
	out := make(map[string]float64, len(lraContainers))
	for app, ids := range lraContainers {
		if len(ids) == 0 {
			out[app] = 0
			continue
		}
		lost := 0
		for _, id := range ids {
			if node, ok := c.ContainerNode(id); ok && down[node] {
				lost++
			}
		}
		out[app] = float64(lost) / float64(len(ids))
	}
	return out
}
