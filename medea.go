// Package medea is a from-scratch reproduction of "Medea: Scheduling of
// Long Running Applications in Shared Production Clusters" (EuroSys 2018).
//
// Medea is a cluster scheduler for long-running applications (LRAs) with
// expressive placement constraints. This package is the public facade: it
// re-exports the pieces a downstream user composes — the cluster model,
// the constraint language, the LRA scheduling algorithms, the task-based
// (capacity) scheduler and the two-scheduler coordinator — so typical
// programs only import "medea".
//
// Quick start:
//
//	c := medea.NewCluster(100, 10, medea.Resource(16384, 8))
//	m := medea.New(c, medea.ILP(), medea.Config{})
//	app := &medea.Application{
//	    ID: "hbase-1",
//	    Groups: []medea.ContainerGroup{{
//	        Name: "rs", Count: 10, Demand: medea.Resource(2048, 1),
//	        Tags: []medea.Tag{"hb", "hb_rs"},
//	    }},
//	    Constraints: []medea.Constraint{
//	        medea.MustParse("{hb_rs, {hb_rs, 0, 1}, node}"),
//	    },
//	}
//	_ = m.SubmitLRA(app, time.Now())
//	stats := m.RunCycle(time.Now())
//
// See the examples/ directory for complete programs and DESIGN.md /
// EXPERIMENTS.md for the paper reproduction.
package medea

import (
	"time"

	"medea/internal/audit"
	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/core"
	"medea/internal/journal"
	"medea/internal/lra"
	"medea/internal/metrics"
	"medea/internal/resource"
	"medea/internal/taskched"
)

// Re-exported core types.
type (
	// Cluster is the shared cluster state both schedulers operate on.
	Cluster = cluster.Cluster
	// NodeID identifies a cluster node.
	NodeID = cluster.NodeID
	// ContainerID identifies an allocated container.
	ContainerID = cluster.ContainerID
	// Vector is a multi-dimensional resource amount.
	Vector = resource.Vector
	// Tag is a container tag (§4.1 of the paper).
	Tag = constraint.Tag
	// Expr is a conjunction of tags.
	Expr = constraint.Expr
	// Constraint is a (possibly compound) placement constraint.
	Constraint = constraint.Constraint
	// Atom is the generic constraint form {subject, {target, min, max}, group}.
	Atom = constraint.Atom
	// GroupName names a node group (node, rack, upgrade_domain, ...).
	GroupName = constraint.GroupName
	// Application is an LRA submission.
	Application = lra.Application
	// ContainerGroup is a homogeneous container group within an LRA.
	ContainerGroup = lra.ContainerGroup
	// Algorithm is an LRA placement algorithm. Its Place plans on the
	// cluster it is handed and returns it as it found it (lra.Algorithm).
	Algorithm = lra.Algorithm
	// Options tunes an LRA scheduling invocation.
	Options = lra.Options
	// Medea is the two-scheduler coordinator.
	Medea = core.Medea
	// Config parameterises a Medea instance.
	Config = core.Config
	// Eviction records one container displaced by a node failure or drain.
	Eviction = cluster.Eviction
	// NodeState is a node's availability state (up, draining, down).
	NodeState = cluster.NodeState
	// RecoveryStats aggregates failure-recovery counters (Medea.Recovery).
	RecoveryStats = metrics.RecoveryStats
	// PipelineStats aggregates the hardening counters (Medea.Pipeline):
	// recovered panics, validation rejects, solver deadline hits and
	// circuit-breaker transitions. Snapshot reads them by name, Table
	// prints them.
	PipelineStats = metrics.PipelineStats
	// ServerStats aggregates the serving layer's overload counters
	// (admitted, throttled, shed, expired, drain-flushed), named as on
	// /v1/stats; see internal/server and cmd/medea-server.
	ServerStats = metrics.ServerStats
	// AuditMode selects the post-commit cluster-invariant checker mode
	// (Config.Audit).
	AuditMode = audit.Mode
	// TaskRequest asks for short-running task containers.
	TaskRequest = taskched.TaskRequest
	// QueueConfig declares a capacity-scheduler queue.
	QueueConfig = taskched.QueueConfig
	// Journal is the write-ahead log + checkpoint store that makes a
	// Medea instance's state durable (Medea.AttachJournal, Recover).
	Journal = journal.Journal
	// JournalRecord is one write-ahead log entry.
	JournalRecord = journal.Record
	// JournalCheckpoint is a full durable-state snapshot.
	JournalCheckpoint = journal.Checkpoint
	// ClusterSnapshot is a serialisable image of cluster state (nodes,
	// groups, allocations), rebuildable via FromSnapshot.
	ClusterSnapshot = cluster.Snapshot
)

// Predefined node groups.
const (
	NodeGroup     = constraint.Node
	RackGroup     = constraint.Rack
	UpgradeDomain = constraint.UpgradeDomain
	FaultDomain   = constraint.FaultDomain
	ServiceUnit   = constraint.ServiceUnit
)

// Node availability states.
const (
	NodeUp       = cluster.NodeUp
	NodeDraining = cluster.NodeDraining
	NodeDown     = cluster.NodeDown
)

// Cluster-invariant auditor modes (Config.Audit). Commit-time validation
// of individual placements is always on; these govern the whole-cluster
// invariant sweep after each cycle.
const (
	// AuditOff skips the post-cycle sweep.
	AuditOff = audit.Off
	// AuditMetrics records invariant violations in Medea.Pipeline.
	AuditMetrics = audit.Metrics
	// AuditFailFast panics on the first invariant violation.
	AuditFailFast = audit.FailFast
)

// ParseAuditMode parses "off", "metrics" or "fail-fast".
func ParseAuditMode(s string) (AuditMode, error) { return audit.ParseMode(s) }

// Resource builds a resource vector of memory (MB) and virtual cores.
func Resource(memoryMB, vcores int64) Vector { return resource.New(memoryMB, vcores) }

// NewCluster builds a cluster of numNodes uniform machines in racks of
// rackSize, registering the node and rack groups.
func NewCluster(numNodes, rackSize int, capacity Vector) *Cluster {
	return cluster.Grid(numNodes, rackSize, capacity)
}

// New creates a Medea instance over a cluster with the given LRA
// algorithm and task queues.
func New(c *Cluster, alg Algorithm, cfg Config, queues ...QueueConfig) *Medea {
	return core.New(c, alg, cfg, queues...)
}

// NewMemoryJournal returns an in-memory journal backend (tests, sims).
func NewMemoryJournal() *journal.Memory { return journal.NewMemory() }

// OpenJournalDir opens (or creates) a file-backed journal directory
// holding a line-JSON write-ahead log and the latest checkpoint.
func OpenJournalDir(dir string) (*journal.File, error) { return journal.OpenDir(dir) }

// Recover rebuilds a scheduler from its journal and the live cluster
// after a crash: latest checkpoint, write-ahead replay, then a
// reconciliation sweep against cluster truth (adopt committed in-flight
// placements, re-queue lost containers, release orphans). The journal is
// re-attached to the returned instance.
func Recover(j Journal, c *Cluster, alg Algorithm, cfg Config, now time.Time, queues ...QueueConfig) (*Medea, error) {
	return core.Recover(j, c, alg, cfg, now, queues...)
}

// FromSnapshot rebuilds a cluster from a snapshot taken with
// Cluster.TakeSnapshot (e.g. the one embedded in a checkpoint).
func FromSnapshot(s *ClusterSnapshot) (*Cluster, error) { return cluster.FromSnapshot(s) }

// ILP returns the Medea-ILP scheduling algorithm (§5.2).
func ILP() Algorithm { return lra.NewILP() }

// NodeCandidates returns the Medea-NC heuristic (§5.3).
func NodeCandidates() Algorithm { return lra.NewNodeCandidates() }

// TagPopularity returns the Medea-TP heuristic (§5.3).
func TagPopularity() Algorithm { return lra.NewTagPopularity() }

// Serial returns the unordered greedy baseline (§7.1).
func Serial() Algorithm { return lra.NewSerial() }

// JKube returns the Kubernetes-algorithm baseline (§7.1).
func JKube() Algorithm { return lra.NewJKube() }

// JKubePlusPlus returns J-Kube extended with cardinality support (§7.1).
func JKubePlusPlus() Algorithm { return lra.NewJKubePlusPlus() }

// YARN returns the constraint-unaware YARN baseline (§7.1).
func YARN() Algorithm { return lra.NewYARN() }

// Constraint constructors (§4.2).

// Affinity places each subject container with at least one target in the
// same node set of group.
func Affinity(subject, target Expr, group GroupName) Constraint {
	return constraint.New(constraint.Affinity(subject, target, group))
}

// AntiAffinity keeps subject containers away from all targets within group.
func AntiAffinity(subject, target Expr, group GroupName) Constraint {
	return constraint.New(constraint.AntiAffinity(subject, target, group))
}

// Cardinality bounds collocated targets per node set between min and max.
func Cardinality(subject, target Expr, min, max int, group GroupName) Constraint {
	return constraint.New(constraint.CardinalityRange(subject, target, min, max, group))
}

// E builds a tag conjunction.
func E(tags ...Tag) Expr { return constraint.E(tags...) }

// Parse parses the textual constraint syntax, e.g.
// "{storm, {hb & mem, 1, inf}, node}".
func Parse(s string) (Constraint, error) { return constraint.Parse(s) }

// MustParse is Parse that panics on malformed input.
func MustParse(s string) Constraint { return constraint.MustParse(s) }

// Unbounded is the cmax value meaning "no upper bound".
const Unbounded = constraint.Unbounded

// Evaluate reports constraint violations on the current cluster state.
func Evaluate(c *Cluster, m *Medea) lra.Report {
	return lra.Evaluate(c, m.ActiveEntries())
}
