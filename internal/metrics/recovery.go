package metrics

import "time"

// RecoveryStats aggregates the failure-recovery counters the live
// resilience experiments report: how much was lost to node churn, how
// much of it the repair loop restored, how fast, and how long each LRA
// spent degraded. core.Medea owns one instance and updates it as nodes
// fail and repairs commit.
type RecoveryStats struct {
	// NodeFailures / NodeRecoveries / NodeDrains count state transitions.
	NodeFailures   int
	NodeRecoveries int
	NodeDrains     int

	// Evictions counts LRA containers lost to node failures or drains;
	// TaskEvictions counts displaced task containers (their re-execution
	// is the owning job's concern, as in the paper's task model).
	Evictions     int
	TaskEvictions int

	// RepairsPlaced counts containers restored by the recovery loop.
	// RepairAttemptsFailed counts repair cycles that could not place or
	// commit a repair batch; RepairsAbandoned counts repair requests
	// dropped after exhausting their retry budget (their containers stay
	// lost). FallbackPlacements counts repair batches placed by the
	// degraded-mode greedy heuristic instead of the configured algorithm.
	RepairsPlaced        int
	RepairAttemptsFailed int
	RepairsAbandoned     int
	FallbackPlacements   int

	// RepairLatencies holds one sample per restored repair batch: the
	// time from eviction to the commit of the replacement containers —
	// the per-LRA MTTR distribution.
	RepairLatencies []time.Duration

	// DegradedTime accumulates, per LRA, the total time the application
	// ran below its declared container count.
	DegradedTime map[string]time.Duration

	// Restart-recovery counters, populated by core.Recover: WAL records
	// replayed over the checkpoint, containers adopted from in-flight
	// placement intents or un-acked repairs, half-applied batches sent
	// back through the pending queue, deployed containers the cluster had
	// lost (re-queued as repairs), and surviving containers no LRA owns
	// any more (released). RecoveryWallTime is the end-to-end cost of the
	// load + replay + reconcile sweep.
	JournalReplayed   int
	ContainersAdopted int
	BatchesReadmitted int
	ZombiesRequeued   int
	OrphansReleased   int
	RecoveryWallTime  time.Duration
}

// ObserveRepair records one restored repair batch.
func (r *RecoveryStats) ObserveRepair(latency time.Duration) {
	r.RepairLatencies = append(r.RepairLatencies, latency)
}

// AddDegraded accumulates degraded time for an LRA.
func (r *RecoveryStats) AddDegraded(appID string, d time.Duration) {
	if d <= 0 {
		return
	}
	if r.DegradedTime == nil {
		r.DegradedTime = make(map[string]time.Duration)
	}
	r.DegradedTime[appID] += d
}

// MTTR returns the mean repair latency (0 with no samples).
func (r *RecoveryStats) MTTR() time.Duration {
	if len(r.RepairLatencies) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range r.RepairLatencies {
		sum += d
	}
	return sum / time.Duration(len(r.RepairLatencies))
}

// MaxRepairLatency returns the slowest observed repair (0 with none).
func (r *RecoveryStats) MaxRepairLatency() time.Duration {
	var m time.Duration
	for _, d := range r.RepairLatencies {
		if d > m {
			m = d
		}
	}
	return m
}

// TotalDegraded sums degraded time across LRAs.
func (r *RecoveryStats) TotalDegraded() time.Duration {
	var sum time.Duration
	for _, d := range r.DegradedTime {
		sum += d
	}
	return sum
}
