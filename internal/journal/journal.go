// Package journal makes the LRA scheduler's state durable. The
// two-scheduler design (§3) keeps all *cluster* truth in the task-based
// scheduler's single-writer path, but the LRA scheduler itself carries
// state the cluster cannot reconstruct: the pending queue with retry
// budgets, the deployed LRA → container maps, the constraint registry,
// the repair queue with backoff deadlines, and the circuit-breaker
// ladder position. This package provides a write-ahead log of those
// state transitions plus checkpoints, behind one interface with
// an in-memory backend (deterministic, fast — the simulator and the
// crash-point tests) and a file backend (real restarts).
//
// Write-ahead discipline: records that announce a cluster mutation
// (place, remove) are appended BEFORE the mutation is applied, so after
// a crash the recovery path can compare the journal's intent against
// cluster truth and roll the half-applied work forward or back. Records
// that only mirror scheduler bookkeeping (submit, requeue, reject) are
// appended at the transition itself.
//
// Staging: an append is not durable on return. Records stage in order
// until a Barrier (or a checkpoint) makes everything staged durable at
// once, so a writer pays one fsync per barrier point rather than one per
// record. The writer takes a barrier before the first cluster mutation a
// staged record announces, and before it reveals state to a client.
package journal

import (
	"fmt"
	"sort"
	"time"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/lra"
	"medea/internal/resource"
)

// Kind discriminates journal records.
type Kind string

// The record kinds, one per durable state transition of core.Medea.
const (
	// KindSubmit: an LRA entered the pending queue (carries the full
	// application, so replay can re-register its constraints).
	KindSubmit Kind = "submit"
	// KindBeginBatch opens a scheduling cycle: the listed entries (due
	// repairs, then pending apps) are in flight until a matching
	// KindCommitBatch. A begin-batch with no commit-batch marks a
	// half-applied cycle for reconciliation.
	KindBeginBatch Kind = "begin-batch"
	// KindPlace is the placement intent for one entry (a new app or a
	// repair), appended after commit-time validation and BEFORE the
	// task-scheduler commit.
	KindPlace Kind = "place"
	// KindRequeue: an in-flight entry went back in line with the
	// recorded retry count (a repair behind the gate At and it determine).
	KindRequeue Kind = "requeue"
	// KindReject: an entry exhausted its retry budget and was given up
	// (a repair's LRA stays degraded).
	KindReject Kind = "reject"
	// KindCommitBatch closes a scheduling cycle; every KindPlace since
	// the begin-batch is now deployed state. Carries the breaker state.
	KindCommitBatch Kind = "commit-batch"
	// KindEvict: containers were lost to a node failure or drain, before
	// the scheduler updated its deployments and repair queue.
	KindEvict Kind = "evict"
	// The repair kinds are retired: nothing writes them since a repair is
	// an entry of the cycle's batch, but replay still reads them.
	// KindRepairOK: a repair committed, restoring the listed container
	// IDs to their LRA.
	KindRepairOK Kind = "repair-ok"
	// KindRepairFail: a repair attempt failed; carries the persisted
	// attempt count and the next backoff gate.
	KindRepairFail Kind = "repair-fail"
	// KindRepairAbandon: a repair exhausted its retry budget and was
	// dropped (the LRA stays degraded).
	KindRepairAbandon Kind = "repair-abandon"
	// KindRemove is the teardown intent for a deployed LRA, appended
	// BEFORE its containers are released.
	KindRemove Kind = "remove"
	// KindNodeRecover: a node came back; repair backoff gates were
	// cleared to the recovery time.
	KindNodeRecover Kind = "node-recover"
)

// Record is one durable state transition. Only the fields relevant to
// the Kind are set; the rest stay zero and are omitted from JSON.
type Record struct {
	// Seq is the monotonically increasing record number, assigned by the
	// journal on append.
	Seq  int64 `json:"seq"`
	Kind Kind  `json:"kind"`
	// At is the scheduler time of the transition.
	At time.Time `json:"at"`

	// App is the full application (KindSubmit).
	App *lra.Application `json:"app,omitempty"`
	// AppID names the affected application (most kinds).
	AppID string `json:"appID,omitempty"`
	// Cycle is the scheduling cycle number (begin/commit-batch).
	Cycle int `json:"cycle,omitempty"`
	// NextRun is the anchored next cycle deadline (begin-batch).
	NextRun time.Time `json:"nextRun,omitempty"`
	// Batch lists the entries taken in flight (begin-batch).
	Batch []string `json:"batch,omitempty"`
	// Assignments is the placement intent (KindPlace).
	Assignments []lra.Assignment `json:"assignments,omitempty"`
	// Retries is the entry's consumed retry count (KindRequeue).
	Retries int `json:"retries,omitempty"`
	// Attempts is the repair's consumed attempt count and NotBefore its
	// next backoff gate (KindRepairFail).
	Attempts  int       `json:"attempts,omitempty"`
	NotBefore time.Time `json:"notBefore,omitempty"`
	// Evictions is the lost container set (KindEvict).
	Evictions []cluster.Eviction `json:"evictions,omitempty"`
	// Restored lists the container IDs a repair brought back
	// (KindRepairOK).
	Restored []cluster.ContainerID `json:"restored,omitempty"`
	// Node is the recovered node (KindNodeRecover).
	Node cluster.NodeID `json:"node,omitempty"`
	// Breaker is the circuit-breaker state after the cycle
	// (KindCommitBatch; nil when the breaker is disabled).
	Breaker *BreakerState `json:"breaker,omitempty"`
}

// BreakerState is the serialisable circuit-breaker position: enough to
// resume the degradation ladder where the crashed process left it.
type BreakerState struct {
	// State is the breaker state name ("closed", "open", "half-open").
	State string `json:"state"`
	// Level is the active ladder level (0 = configured algorithm).
	Level int `json:"level"`
	// Failures is the consecutive-failure count in the current state.
	Failures int `json:"failures"`
	// Wait is the open cycles remaining before the next half-open probe.
	Wait int `json:"wait"`
}

// Checkpoint is a full serialisation of the scheduler's durable state at
// one record boundary. Recovery loads the latest checkpoint and replays
// only the records with Seq greater than the checkpoint's.
type Checkpoint struct {
	// Seq is the last journal record covered by this checkpoint.
	Seq int64 `json:"seq"`
	// At is the scheduler time the checkpoint was taken.
	At time.Time `json:"at"`

	Cycles  int       `json:"cycles"`
	NextRun time.Time `json:"nextRun"`

	Pending  []PendingApp  `json:"pending,omitempty"`
	Deployed []DeployedApp `json:"deployed,omitempty"`
	Repairs  []RepairItem  `json:"repairs,omitempty"`
	Rejected []string      `json:"rejected,omitempty"`
	// Operator holds the cluster operator's constraints (application
	// constraints travel with their Pending/Deployed entries).
	Operator []constraint.Constraint `json:"operator,omitempty"`
	Breaker  *BreakerState           `json:"breaker,omitempty"`
	// Cluster is the cluster state at checkpoint time. A process that
	// restarts without its cluster (medea-server, the benchmark's
	// svc_durable recovery) rebuilds it from this with FromSnapshot; core's
	// Recover then reconciles against whichever cluster it is handed.
	Cluster *cluster.Snapshot `json:"cluster,omitempty"`
	// Epoch numbers the incarnation of the scheduler that wrote this
	// checkpoint (core.Medea.Epoch); 0 in checkpoints from before it.
	Epoch uint64 `json:"epoch,omitempty"`
}

// PendingApp is one pending-queue entry, in queue order.
type PendingApp struct {
	App     *lra.Application `json:"app"`
	Submit  time.Time        `json:"submit"`
	Retries int              `json:"retries,omitempty"`
}

// DeployedApp is one deployed LRA with its live containers in placement
// order.
type DeployedApp struct {
	App           *lra.Application    `json:"app"`
	Containers    []DeployedContainer `json:"containers"`
	DegradedSince time.Time           `json:"degradedSince,omitempty"`
}

// DeployedContainer is one live LRA container.
type DeployedContainer struct {
	ID     cluster.ContainerID `json:"id"`
	Group  string              `json:"group"`
	Demand resource.Vector     `json:"demand"`
	Tags   []constraint.Tag    `json:"tags,omitempty"`
}

// RepairItem is one repair-queue entry with its persisted retry budget
// and backoff gate — the satellite fix: a recovered scheduler resumes
// the remaining budget instead of granting a fresh one.
type RepairItem struct {
	AppID     string              `json:"appID"`
	Lost      []DeployedContainer `json:"lost"`
	Attempts  int                 `json:"attempts,omitempty"`
	NotBefore time.Time           `json:"notBefore,omitempty"`
	Since     time.Time           `json:"since,omitempty"`
}

// checkpointFactor is the checkpoint rule of log-structured stores and
// Raft snapshotting: a checkpoint is due once the records appended since
// the last one encode to this multiple of its encoded size. Checkpoint
// work is then at most 1/checkpointFactor byte per byte of log, and a
// recovery replays at most checkpointFactor times the state it loads.
const checkpointFactor = 4

// untilCheckpoint applies the rule to tail bytes after a checkpoint of
// checkpoint bytes.
func untilCheckpoint(tail, checkpoint int) int { return checkpointFactor*checkpoint - tail }

// Lagger is optionally implemented by backends that can report how many
// WAL records have accumulated since the last checkpoint — the tail a
// recovery would have to replay.
type Lagger interface {
	// Lag returns the number of records appended since the last
	// checkpoint.
	Lag() int
}

// Journal is the durable-state backend. Implementations must assign
// Record.Seq on Append and must return, from Load, the latest checkpoint
// (nil if none) plus all durable records with Seq greater than the
// checkpoint's, in Seq order.
type Journal interface {
	// Append stages one record, assigning its Seq. A crash before the
	// next Barrier or checkpoint may lose it, and with it every record
	// staged after it.
	Append(r *Record) error
	// Barrier makes every record staged since the last barrier durable.
	// With nothing staged it does nothing.
	Barrier() error
	// WriteCheckpoint stores a checkpoint covering all records appended
	// so far, staged or not; its Seq is assigned by the journal. It is a
	// barrier too.
	WriteCheckpoint(c *Checkpoint) error
	// UntilCheckpoint returns how many more encoded record bytes may be
	// appended, staged or not, before a checkpoint is due (four times the
	// last checkpoint's size, less the bytes since); zero or less: due.
	UntilCheckpoint() int
	// Load returns the latest checkpoint and the durable log tail after
	// it.
	Load() (*Checkpoint, []*Record, error)
	// Close makes what is staged durable and releases backend resources.
	// The journal must not be used afterwards.
	Close() error
}

// Memory is the in-memory backend: records and checkpoints round-trip
// through JSON exactly like the file backend (so both backends accept
// and reject the same state), but nothing leaves the process. It is the
// backend of the simulator and the crash-point tests. An append is as
// durable as the process on return, so Barrier has nothing to do; the
// crash-point tests model the loss of unbarriered records with a staging
// wrapper on top.
type Memory struct {
	seq        int64
	tail       [][]byte // encoded records after the last checkpoint
	checkpoint []byte   // encoded latest checkpoint (nil if none)
	closed     bool
	// scratch is the reused buffer Append encodes into; tail keeps an
	// exact-size copy of each record.
	scratch []byte
}

// NewMemory returns an empty in-memory journal.
func NewMemory() *Memory { return &Memory{} }

// Append implements Journal.
func (m *Memory) Append(r *Record) error {
	if m.closed {
		return fmt.Errorf("journal: append on closed journal")
	}
	m.seq++
	r.Seq = m.seq
	b, err := AppendRecord(m.scratch[:0], r)
	if err != nil {
		m.seq--
		return err
	}
	m.scratch = b
	m.tail = append(m.tail, append(make([]byte, 0, len(b)), b...))
	return nil
}

// Barrier implements Journal.
func (m *Memory) Barrier() error {
	if m.closed {
		return fmt.Errorf("journal: barrier on closed journal")
	}
	return nil
}

// WriteCheckpoint implements Journal. The in-memory log is compacted:
// records the checkpoint covers are dropped, mirroring the file
// backend's log rotation.
func (m *Memory) WriteCheckpoint(c *Checkpoint) error {
	if m.closed {
		return fmt.Errorf("journal: checkpoint on closed journal")
	}
	c.Seq = m.seq
	b, err := encodeCheckpoint(c)
	if err != nil {
		return err
	}
	m.checkpoint = b
	m.tail = nil
	return nil
}

// UntilCheckpoint implements Journal.
func (m *Memory) UntilCheckpoint() int {
	tail := 0
	for _, b := range m.tail {
		tail += len(b)
	}
	return untilCheckpoint(tail, len(m.checkpoint))
}

// Lag implements Lagger: the number of records since the last checkpoint.
func (m *Memory) Lag() int { return len(m.tail) }

// Clone returns an independent copy of the journal's durable state. The
// encoded record bytes are shared (they are never mutated after append),
// so a clone is cheap; appends and checkpoints on either side do not
// affect the other. Deterministic-simulation harnesses recover a clone
// to compare journal truth against live state without disturbing the
// member's real journal.
func (m *Memory) Clone() *Memory { return m.ClonePrefix(len(m.tail)) }

// ClonePrefix returns a clone holding the checkpoint plus only the first
// n tail records — the journal exactly as a crash after the nth
// post-checkpoint append would have left it. n is clamped to the tail
// length. The prefix-replay property tests drive core.Recover over every
// such prefix.
func (m *Memory) ClonePrefix(n int) *Memory {
	if n < 0 {
		n = 0
	}
	if n > len(m.tail) {
		n = len(m.tail)
	}
	return &Memory{
		seq:        m.seq,
		tail:       append([][]byte(nil), m.tail[:n]...),
		checkpoint: m.checkpoint,
	}
}

// Load implements Journal.
func (m *Memory) Load() (*Checkpoint, []*Record, error) {
	var cp *Checkpoint
	if m.checkpoint != nil {
		var err error
		cp, err = decodeCheckpoint(m.checkpoint)
		if err != nil {
			return nil, nil, err
		}
	}
	recs := make([]*Record, 0, len(m.tail))
	for _, b := range m.tail {
		r, err := decodeRecord(b)
		if err != nil {
			return nil, nil, err
		}
		recs = append(recs, r)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Seq < recs[j].Seq })
	return cp, recs, nil
}

// Close implements Journal.
func (m *Memory) Close() error {
	m.closed = true
	return nil
}
