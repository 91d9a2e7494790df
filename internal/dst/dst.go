// Package dst is the deterministic simulation harness: the full Medea
// stack — N journaled scheduler cores behind their serving layers, wired
// into a federation fleet over the fault-gated in-process transport —
// driven entirely on virtual time by a single seeded RNG, under
// randomized fault schedules.
//
// The discipline is FoundationDB's: all nondeterminism is funneled
// through one seed. The RNG is consumed ONLY during schedule generation
// (Generate); execution of a schedule is RNG-free, single-threaded and
// clocked by a virtual clock the harness advances per event, so the same
// seed always produces byte-identical traces. A failing seed is
// reproduced by rerunning it, shrunk by delta-debugging its event
// schedule (Minimize), and shipped as a self-contained JSON artifact
// (Artifact) that replays anywhere.
//
// After every event a cross-layer invariant checker compares client
// truth (what submitters were acknowledged), federation truth (the
// balancer's ledger), member truth (each core's deployed/pending sets)
// and durable truth (what a recovery from the journal would rebuild).
// See invariants.go for the exact list.
package dst

import "fmt"

// Config parameterizes one simulation: the seed, the schedule length and
// the fleet shape. The zero value of every field but Seed has a sensible
// default.
type Config struct {
	// Seed is the single source of randomness; the whole run is a pure
	// function of it (plus the other Config fields).
	Seed int64
	// Events is the schedule length (0 = 400).
	Events int
	// Members is the number of member clusters (0 = 3).
	Members int
	// Nodes is the per-member node count (0 = 8).
	Nodes int
	// Inject plants a deliberate bookkeeping hole (a Balancer.Forget of a
	// placed app) two thirds into the schedule. The invariant checker is
	// expected to catch it; a run that passes despite Inject means the
	// checker has gone blind.
	Inject bool
}

func (c Config) events() int {
	if c.Events > 0 {
		return c.Events
	}
	return 400
}

func (c Config) members() int {
	if c.Members > 0 {
		return c.Members
	}
	return 3
}

func (c Config) nodes() int {
	if c.Nodes > 0 {
		return c.Nodes
	}
	return 8
}

// Violation names — stable identifiers, used by minimization to insist
// the shrunk schedule reproduces the SAME failure, and by artifacts.
const (
	// VioAckedLost: an acknowledged (2xx) submission is no longer
	// accounted for by the federation ledger.
	VioAckedLost = "acked-app-lost"
	// VioAuditLost: the balancer's own audit reported an app lost for
	// longer than anti-entropy repair could plausibly need.
	VioAuditLost = "audit-lost"
	// VioUntracked: a member runs a copy of an app the ledger does not
	// track at all.
	VioUntracked = "untracked-copy"
	// VioDuplicate: an app is live on two members and the extra copy has
	// no ambiguous mark explaining it.
	VioDuplicate = "unmarked-duplicate"
	// VioCapacity: a node's allocations exceed its capacity, or cluster
	// accounting diverged.
	VioCapacity = "capacity-exceeded"
	// VioCoreInvariant: a member core's own CheckInvariants failed.
	VioCoreInvariant = "core-invariant"
	// VioSlowDead: the failure detector confirmed a slow-but-alive
	// member dead.
	VioSlowDead = "slow-confirmed-dead"
	// VioShadowRecovery: recovering a clone of a member's journal
	// disagreed with the live member, or failed outright.
	VioShadowRecovery = "shadow-recovery"
	// VioRestartFailed: rebuilding a crashed member from its journal
	// failed.
	VioRestartFailed = "restart-failed"
	// VioMigration: the two-phase migration protocol left an app in an
	// incoherent state — reported lost mid-migration, or still mid-flight
	// after the settle phase gave every crash recovery time to resolve.
	VioMigration = "migration-incoherent"
)

// Violation is one invariant failure: which invariant, at which event
// index (-1 = during the settle phase), and the human-readable detail.
type Violation struct {
	Name   string `json:"name"`
	Event  int    `json:"event"`
	Detail string `json:"detail"`
}

func (v *Violation) Error() string {
	return fmt.Sprintf("dst: %s at event %d: %s", v.Name, v.Event, v.Detail)
}

// Result is one run's outcome: nil Violation means every invariant held
// through the schedule and the settle phase. Trace is the deterministic
// run log — same seed, same bytes.
type Result struct {
	Violation *Violation
	Trace     []byte
	// Executed counts schedule events actually applied (a run stops at
	// the first violation).
	Executed int
}
