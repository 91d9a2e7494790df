package metrics

import "sync/atomic"

// FedStats aggregates the federation balancer's counters: how
// submissions were routed across member clusters, how often they spilled
// over to a lower-ranked member, what the failure detector observed, and
// how cross-cluster failover resolved. The counters are atomics — the
// balancer's submit path and its probe/failover loop record
// concurrently. FedStats must not be copied after first use; hold it by
// pointer.
type FedStats struct {
	routed            atomic.Int64
	spillovers        atomic.Int64
	routeRetries      atomic.Int64
	routeFailures     atomic.Int64
	probeOK           atomic.Int64
	probeMisses       atomic.Int64
	deadConfirms      atomic.Int64
	failoverEvents    atomic.Int64
	failoverReplaced  atomic.Int64
	degradedQueued    atomic.Int64
	degradedRecovered atomic.Int64
	reconciled        atomic.Int64
	rerouted          atomic.Int64

	migrationsStarted   atomic.Int64
	migrationsCompleted atomic.Int64
	migrationsAborted   atomic.Int64
	drainsStarted       atomic.Int64
	drainsCompleted     atomic.Int64
	rollingRestarts     atomic.Int64
}

// AddRouted counts a submission accepted by some member (202).
func (s *FedStats) AddRouted() { s.routed.Add(1) }

// AddSpillover counts an attempt deflected by a member's overload
// control (429/503) onto the next-ranked member.
func (s *FedStats) AddSpillover() { s.spillovers.Add(1) }

// AddRouteRetry counts a full ranking pass that failed, triggering a
// backed-off retry round.
func (s *FedStats) AddRouteRetry() { s.routeRetries.Add(1) }

// AddRouteFailure counts a submission no member accepted within the
// retry budget.
func (s *FedStats) AddRouteFailure() { s.routeFailures.Add(1) }

// AddProbeOK counts a successful scout probe (a heartbeat).
func (s *FedStats) AddProbeOK() { s.probeOK.Add(1) }

// AddProbeMiss counts a timed-out or refused scout probe.
func (s *FedStats) AddProbeMiss() { s.probeMisses.Add(1) }

// AddDeadConfirm counts a member transitioning to confirmed-dead.
func (s *FedStats) AddDeadConfirm() { s.deadConfirms.Add(1) }

// AddFailoverEvent counts a cross-cluster failover run for a dead
// member.
func (s *FedStats) AddFailoverEvent() { s.failoverEvents.Add(1) }

// AddFailoverReplaced counts an application re-homed onto a surviving
// member during failover.
func (s *FedStats) AddFailoverReplaced() { s.failoverReplaced.Add(1) }

// AddDegradedQueued counts an application parked in the degraded queue
// because no survivor had capacity for it.
func (s *FedStats) AddDegradedQueued() { s.degradedQueued.Add(1) }

// AddDegradedRecovered counts a degraded application later placed on a
// member.
func (s *FedStats) AddDegradedRecovered() { s.degradedRecovered.Add(1) }

// AddReconciled counts a duplicate placement cleaned up after an
// ambiguous (timed-out) submit attempt was found to have landed.
func (s *FedStats) AddReconciled() { s.reconciled.Add(1) }

// AddRerouted counts an acknowledged application whose home member lost
// it (crash before the submission became durable) and which the
// balancer's anti-entropy sweep sent back through placement.
func (s *FedStats) AddRerouted() { s.rerouted.Add(1) }

// Routed returns the accepted-submission count.
func (s *FedStats) Routed() int { return int(s.routed.Load()) }

// Spillovers returns the overload-deflection count.
func (s *FedStats) Spillovers() int { return int(s.spillovers.Load()) }

// RouteRetries returns the backed-off retry-round count.
func (s *FedStats) RouteRetries() int { return int(s.routeRetries.Load()) }

// RouteFailures returns the routing-gave-up count.
func (s *FedStats) RouteFailures() int { return int(s.routeFailures.Load()) }

// ProbeOK returns the successful-probe count.
func (s *FedStats) ProbeOK() int { return int(s.probeOK.Load()) }

// ProbeMisses returns the failed-probe count.
func (s *FedStats) ProbeMisses() int { return int(s.probeMisses.Load()) }

// DeadConfirms returns the confirmed-dead transition count.
func (s *FedStats) DeadConfirms() int { return int(s.deadConfirms.Load()) }

// FailoverEvents returns the failover-run count.
func (s *FedStats) FailoverEvents() int { return int(s.failoverEvents.Load()) }

// FailoverReplaced returns the re-homed application count.
func (s *FedStats) FailoverReplaced() int { return int(s.failoverReplaced.Load()) }

// DegradedQueued returns the parked-in-degraded-mode count.
func (s *FedStats) DegradedQueued() int { return int(s.degradedQueued.Load()) }

// DegradedRecovered returns the degraded-then-placed count.
func (s *FedStats) DegradedRecovered() int { return int(s.degradedRecovered.Load()) }

// Reconciled returns the duplicate-cleanup count.
func (s *FedStats) Reconciled() int { return int(s.reconciled.Load()) }

// Rerouted returns the anti-entropy re-route count.
func (s *FedStats) Rerouted() int { return int(s.rerouted.Load()) }

// AddMigrationStarted counts a cross-cluster migration entering PREPARE.
func (s *FedStats) AddMigrationStarted() { s.migrationsStarted.Add(1) }

// AddMigrationCompleted counts a migration whose app now lives on the
// destination with the source copy deleted.
func (s *FedStats) AddMigrationCompleted() { s.migrationsCompleted.Add(1) }

// AddMigrationAborted counts a migration rolled back (reservation
// released, app stays home).
func (s *FedStats) AddMigrationAborted() { s.migrationsAborted.Add(1) }

// AddDrainStarted counts a DrainMember evacuation starting.
func (s *FedStats) AddDrainStarted() { s.drainsStarted.Add(1) }

// AddDrainCompleted counts a member drain finishing (evacuated, or
// converged as a no-op after organic failover won the race).
func (s *FedStats) AddDrainCompleted() { s.drainsCompleted.Add(1) }

// AddRollingRestart counts a completed fleet-wide rolling restart.
func (s *FedStats) AddRollingRestart() { s.rollingRestarts.Add(1) }

// MigrationsStarted returns the migrations-entered-PREPARE count.
func (s *FedStats) MigrationsStarted() int { return int(s.migrationsStarted.Load()) }

// MigrationsCompleted returns the completed-migration count.
func (s *FedStats) MigrationsCompleted() int { return int(s.migrationsCompleted.Load()) }

// MigrationsAborted returns the aborted-migration count.
func (s *FedStats) MigrationsAborted() int { return int(s.migrationsAborted.Load()) }

// DrainsStarted returns the started-drain count.
func (s *FedStats) DrainsStarted() int { return int(s.drainsStarted.Load()) }

// DrainsCompleted returns the completed-drain count.
func (s *FedStats) DrainsCompleted() int { return int(s.drainsCompleted.Load()) }

// RollingRestarts returns the completed-rolling-restart count.
func (s *FedStats) RollingRestarts() int { return int(s.rollingRestarts.Load()) }

// Table renders the counters as a two-column summary table.
func (s *FedStats) Table(title string) *Table {
	t := NewTable(title, "metric", "value")
	t.AddRow("routed", s.Routed())
	t.AddRow("spillovers", s.Spillovers())
	t.AddRow("route retries", s.RouteRetries())
	t.AddRow("route failures", s.RouteFailures())
	t.AddRow("probes ok", s.ProbeOK())
	t.AddRow("probes missed", s.ProbeMisses())
	t.AddRow("dead confirms", s.DeadConfirms())
	t.AddRow("failover events", s.FailoverEvents())
	t.AddRow("failover replaced", s.FailoverReplaced())
	t.AddRow("degraded queued", s.DegradedQueued())
	t.AddRow("degraded recovered", s.DegradedRecovered())
	t.AddRow("reconciled", s.Reconciled())
	t.AddRow("rerouted", s.Rerouted())
	t.AddRow("migrations started", s.MigrationsStarted())
	t.AddRow("migrations completed", s.MigrationsCompleted())
	t.AddRow("migrations aborted", s.MigrationsAborted())
	t.AddRow("drains started", s.DrainsStarted())
	t.AddRow("drains completed", s.DrainsCompleted())
	t.AddRow("rolling restarts", s.RollingRestarts())
	return t
}
