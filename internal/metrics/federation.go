package metrics

// FedCounter names one federation balancer counter: how submissions were
// routed across member clusters, what the failure detector observed, how
// failover resolved, and the planned movement (migrations, drains,
// rolling restarts). Its names are the JSON fields of medea-fed's report,
// for the counters that report carries.
type FedCounter int

const (
	Routed              FedCounter = iota // submissions some member accepted (202)
	Spillovers                            // attempts deflected by a member's overload control onto the next-ranked member
	RouteRetries                          // full ranking passes that failed, starting a backed-off retry round
	RouteFailures                         // submissions no member accepted within the retry budget
	ProbeOK                               // successful scout probes (heartbeats)
	ProbeMisses                           // timed-out or refused scout probes
	DeadConfirms                          // members confirmed dead
	FailoverEvents                        // cross-cluster failovers run for a dead member
	FailoverReplaced                      // apps re-homed onto a surviving member by failover
	DegradedQueued                        // apps parked in the degraded queue: no survivor had room
	DegradedRecovered                     // degraded apps later placed on a member
	Reconciled                            // duplicates cleaned up after an ambiguous attempt turned out to have landed
	Rerouted                              // acknowledged apps their home lost, sent back through placement by anti-entropy
	MigrationsStarted                     // migrations entering PREPARE
	MigrationsCompleted                   // migrations whose app lives on the destination, the source copy deleted
	MigrationsAborted                     // migrations rolled back: reservation released, app stays home
	DrainsStarted                         // member drains starting
	DrainsCompleted                       // member drains finishing (evacuated, or overtaken by failover)
	RollingRestarts                       // fleet-wide rolling restarts completed
)

var fedNames = [...]string{
	Routed:              "routed",
	Spillovers:          "spillovers",
	RouteRetries:        "route_retries",
	RouteFailures:       "route_failures",
	ProbeOK:             "probe_ok",
	ProbeMisses:         "probe_misses",
	DeadConfirms:        "dead_confirms",
	FailoverEvents:      "failover_events",
	FailoverReplaced:    "failover_replaced",
	DegradedQueued:      "degraded_queued",
	DegradedRecovered:   "degraded_recovered",
	Reconciled:          "reconciled",
	Rerouted:            "rerouted",
	MigrationsStarted:   "migrations_started",
	MigrationsCompleted: "migrations_completed",
	MigrationsAborted:   "migrations_aborted",
	DrainsStarted:       "drains_started",
	DrainsCompleted:     "drains_completed",
	RollingRestarts:     "rolling_restarts",
}

func (FedCounter) names() []string { return fedNames[:] }

// FedStats is the federation balancer's counters.
type FedStats struct {
	Counters[FedCounter]
}

// Routed returns the Routed count. It and Spillovers stay methods
// because benchmark/targets.go calls them.
func (s *FedStats) Routed() int { return s.Get(Routed) }

// Spillovers returns the Spillovers count.
func (s *FedStats) Spillovers() int { return s.Get(Spillovers) }
