package metrics

import "time"

// RecoveryStats aggregates the failure-recovery counters the live
// resilience experiments report: how much was lost to node churn, how
// much of it the repair loop restored, how fast, and how long LRAs spent
// degraded. core.Medea owns one instance and updates it as nodes
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
	// RepairAttemptsFailed counts repair attempts that could not place or
	// commit a repair; RepairsAbandoned counts repairs dropped after
	// exhausting their retry budget (their containers stay lost).
	RepairsPlaced        int
	RepairAttemptsFailed int
	RepairsAbandoned     int

	// repairs, repairTime and maxRepair summarise the restored repair
	// batches (ObserveRepair); degraded sums the time LRAs ran below their
	// declared container count (AddDegraded).
	repairs    int
	repairTime time.Duration
	maxRepair  time.Duration
	degraded   time.Duration

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

// ObserveRepair records one restored repair batch: latency is the time
// from eviction to the commit of the replacement containers.
func (r *RecoveryStats) ObserveRepair(latency time.Duration) {
	r.repairs++
	r.repairTime += latency
	r.maxRepair = max(r.maxRepair, latency)
}

// AddDegraded accumulates degraded time.
func (r *RecoveryStats) AddDegraded(d time.Duration) {
	if d > 0 {
		r.degraded += d
	}
}

// MTTR returns the mean repair latency (0 with no samples).
func (r *RecoveryStats) MTTR() time.Duration {
	if r.repairs == 0 {
		return 0
	}
	return r.repairTime / time.Duration(r.repairs)
}

// MaxRepairLatency returns the slowest observed repair (0 with none).
func (r *RecoveryStats) MaxRepairLatency() time.Duration { return r.maxRepair }

// TotalDegraded sums degraded time across LRAs.
func (r *RecoveryStats) TotalDegraded() time.Duration { return r.degraded }
