// Package core wires Medea together: the two-scheduler design of §3
// (Figure 4). LRAs submitted through the rich constraint interface are
// batched and placed by the LRA scheduler at regular scheduling intervals;
// task-based jobs go straight to the task-based scheduler. All actual
// allocations flow through the task-based scheduler, which makes it the
// single writer of cluster state and sidesteps the conflicting-placement
// problem of multi-level schedulers (§5.4).
package core

import (
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"medea/internal/audit"
	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/ilp"
	"medea/internal/journal"
	"medea/internal/lra"
	"medea/internal/metrics"
	"medea/internal/resource"
	"medea/internal/taskched"
)

// Config parameterises a Medea instance.
type Config struct {
	// Interval is the LRA scheduling interval (§5.1); longer intervals
	// batch more LRAs per cycle, improving placement quality at the cost
	// of LRA scheduling latency. Default 10s (§7.1).
	Interval time.Duration
	// Options are passed to the LRA algorithm.
	Options lra.Options
	// MaxRetries bounds LRA resubmission after placement conflicts (§5.4).
	// The zero value selects the default of 3; a negative value disables
	// retries entirely (an LRA that fails its first cycle is rejected) —
	// without the sentinel, "no retries" would be unexpressible.
	MaxRetries int
	// ScheduleTasksViaLRA turns the instance into the ILP-ALL strawman of
	// §7.5 (Figure 11b): task requests are converted into single-group
	// LRAs and routed through the LRA scheduler, abandoning the
	// two-scheduler split.
	ScheduleTasksViaLRA bool

	// RepairBackoff is the base delay between repair attempts for one
	// LRA; consecutive failures back off exponentially from it (zero =
	// Interval).
	RepairBackoff time.Duration

	// SolverBudget bounds the LRA solver's wall-clock time per cycle
	// end-to-end: it is copied into Options.SolverBudget (when that is
	// unset) and flows through the algorithm into ilp.Options.Deadline,
	// which the simplex pivot loops and branch-and-bound both honor. Zero
	// leaves the algorithm's own default (2s for the ILP).
	SolverBudget time.Duration
	// Audit selects the post-commit whole-cluster invariant check mode:
	// audit.Off (default), audit.Metrics (count violations) or
	// audit.FailFast (panic on the first violation — tests, CI, sim).
	// Commit-time placement validation is always on regardless of mode.
	Audit audit.Mode
	// BreakerThreshold is the number of consecutive failed cycles (panic,
	// solver exhaustion, invalid model, validation rejection) that trips
	// the circuit breaker onto the degradation ladder (0 = 3, negative =
	// breaker disabled).
	BreakerThreshold int
	// BreakerCooldown is the number of cycles the breaker stays open on a
	// degraded ladder level before half-open probing the configured
	// algorithm again (0 = 2).
	BreakerCooldown int

	// CheckpointEvery is the journal checkpoint cadence in scheduling
	// cycles: every Nth journaled cycle also writes a full state
	// checkpoint, bounding the log tail a recovery has to replay (zero =
	// 16, negative = never checkpoint after the initial one). Ignored
	// until a journal is attached.
	CheckpointEvery int

	// Clock is the wall-clock source for the few places core reads real
	// time outside the caller-supplied scheduler time — today only the
	// RecoveryWallTime stamp in Recover (nil = time.Now). Deterministic
	// simulation injects its virtual clock so recovered state is
	// bit-identical across runs.
	Clock func() time.Time
}

// maxRetries resolves the MaxRetries sentinel: 0 → default 3, negative →
// no retries.
func (c Config) maxRetries() int {
	if c.MaxRetries == 0 {
		return 3
	}
	if c.MaxRetries < 0 {
		return 0
	}
	return c.MaxRetries
}

// repairMaxRetries bounds repair attempts per degraded LRA after node
// failures before the repair is abandoned.
const repairMaxRetries = 5

func (c Config) repairBackoff() time.Duration {
	if c.RepairBackoff > 0 {
		return c.RepairBackoff
	}
	return c.Interval
}

// repairBackoffCap caps the exponential repair backoff, as a multiple of
// the base delay.
const repairBackoffCap = 8

// repairFallbackAfter is the number of consecutive failed repair attempts
// for one LRA after which its repair batch is placed with the greedy
// Medea-NC heuristic instead of the configured algorithm — graceful
// degradation when the ILP repeatedly times out or conflicts.
const repairFallbackAfter = 2

func (c Config) breakerThreshold() int {
	if c.BreakerThreshold == 0 {
		return 3
	}
	return c.BreakerThreshold
}

func (c Config) breakerCooldown() int {
	if c.BreakerCooldown <= 0 {
		return 2
	}
	return c.BreakerCooldown
}

// checkpointEvery resolves the CheckpointEvery sentinel: 0 → every 16
// cycles, negative → never.
func (c Config) checkpointEvery() int {
	if c.CheckpointEvery == 0 {
		return 16
	}
	if c.CheckpointEvery < 0 {
		return 0
	}
	return c.CheckpointEvery
}

// Medea is the cluster scheduler.
type Medea struct {
	Cluster     *cluster.Cluster
	Constraints *constraint.Manager
	Tasks       *taskched.Scheduler

	alg     lra.Algorithm
	cfg     Config
	pending []*pendingApp
	nextRun time.Time

	deployed map[string]*deployment
	owner    map[cluster.ContainerID]string // live LRA container -> appID

	// repairs holds at most one pending repair request per degraded LRA.
	repairs   map[string]*repairReq
	repairSeq int
	// repairFallback is the degraded-mode heuristic (lazily built).
	repairFallback lra.Algorithm

	// Recovery aggregates failure-recovery counters (evictions, repairs,
	// MTTR, degraded time per LRA).
	Recovery metrics.RecoveryStats

	// Pipeline aggregates the defense-in-depth counters: recovered
	// panics, validation rejects, deadline hits, invariant violations and
	// circuit-breaker activity.
	Pipeline metrics.PipelineStats

	// brk is the degradation-ladder circuit breaker (nil when disabled).
	brk *breaker
	// cycles counts completed scheduling cycles (for breaker events and
	// fail-fast diagnostics).
	cycles int

	// LRALatencies records submission-to-commit latency per placed LRA.
	LRALatencies []time.Duration
	// Rejected lists LRAs dropped after exhausting conflict retries or
	// found unplaceable.
	Rejected []string
	// taskSeq names synthetic task LRAs in ILP-ALL mode.
	taskSeq int

	// jnl is the attached write-ahead journal (nil = volatile scheduler).
	jnl journal.Journal
}

// New builds a Medea instance over a cluster, with the given LRA
// algorithm and task queues.
func New(c *cluster.Cluster, alg lra.Algorithm, cfg Config, queues ...taskched.QueueConfig) *Medea {
	if cfg.Interval == 0 {
		cfg.Interval = 10 * time.Second
	}
	if cfg.Options.SolverBudget == 0 {
		cfg.Options.SolverBudget = cfg.SolverBudget
	}
	if cfg.Options.Clock == nil {
		// The scheduler's clock drives the algorithms too: a virtual-time
		// core must not let solver latency stamps or ILP deadlines read
		// the wall clock.
		cfg.Options.Clock = cfg.Clock
	}
	m := &Medea{
		Cluster:     c,
		Constraints: constraint.NewManager(),
		Tasks:       taskched.New(c, queues...),
		alg:         alg,
		cfg:         cfg,
		deployed:    make(map[string]*deployment),
		owner:       make(map[cluster.ContainerID]string),
		repairs:     make(map[string]*repairReq),
	}
	if cfg.BreakerThreshold >= 0 {
		m.brk = newBreaker(alg, cfg.breakerThreshold(), cfg.breakerCooldown(), &m.Pipeline)
	}
	return m
}

// Algorithm returns the configured LRA placement algorithm.
func (m *Medea) Algorithm() lra.Algorithm { return m.alg }

// AttachJournal makes the scheduler's state durable: every subsequent
// state transition appends a write-ahead record to j, and a full
// checkpoint is written every Config.CheckpointEvery journaled cycles.
// An initial checkpoint of the current state is written immediately, so
// Recover always has a base to replay onto. now stamps that checkpoint.
func (m *Medea) AttachJournal(j journal.Journal, now time.Time) error {
	m.jnl = j
	return j.WriteCheckpoint(m.buildCheckpoint(now))
}

// Journal returns the attached journal (nil when the scheduler is
// volatile).
func (m *Medea) Journal() journal.Journal { return m.jnl }

// JournalLag returns the number of WAL records appended since the last
// checkpoint — the replay tail a recovery would face. It is a
// backpressure signal for admission control: a scheduler whose
// checkpoint cadence cannot keep up should shed load before the replay
// window grows unboundedly. Zero when no journal is attached or the
// backend does not expose lag.
func (m *Medea) JournalLag() int {
	if lg, ok := m.jnl.(journal.Lagger); ok {
		return lg.Lag()
	}
	return 0
}

// Checkpoint forces a full durable-state checkpoint now, independent of
// the CheckpointEvery cadence. The serving layer uses it on graceful
// drain (persist everything before exit) and after operator-constraint
// changes (which have no WAL record of their own). No-op without an
// attached journal.
func (m *Medea) Checkpoint(now time.Time) error {
	if m.jnl == nil {
		return nil
	}
	return m.jnl.WriteCheckpoint(m.buildCheckpoint(now))
}

// SetSolverBudget adjusts the per-cycle solver wall-clock budget at
// runtime. The serving layer uses it for deadline propagation: when
// queued submissions carry request deadlines, the scheduling loop clamps
// the budget to the tightest remaining deadline before running the cycle
// and restores it afterwards. A non-positive d restores the algorithm's
// own default.
func (m *Medea) SetSolverBudget(d time.Duration) {
	if d < 0 {
		d = 0
	}
	m.cfg.SolverBudget = d
	m.cfg.Options.SolverBudget = d
}

// SolverBudget returns the currently configured solver budget (zero =
// the algorithm's own default).
func (m *Medea) SolverBudget() time.Duration { return m.cfg.Options.SolverBudget }

// SetSolverMode selects the ILP solving path at runtime — exact
// branch-and-bound, the LP-rounding approximate path, or automatic
// per-instance selection — and toggles the scheduler's cross-cycle
// warm-start memory. Heuristic algorithms ignore both knobs. The DST
// harness flips them mid-run to prove every path yields valid,
// deterministic placements.
func (m *Medea) SetSolverMode(mode ilp.Mode, disableCycleWarm bool) {
	m.cfg.Options.SolverMode = mode
	m.cfg.Options.DisableCycleWarm = disableCycleWarm
}

// SolverMode returns the currently configured ILP solving path.
func (m *Medea) SolverMode() ilp.Mode { return m.cfg.Options.SolverMode }

// logRecord appends one WAL record, fail-stop: a scheduler that cannot
// persist a state transition must not keep applying it.
func (m *Medea) logRecord(r *journal.Record) {
	if m.jnl == nil {
		return
	}
	if err := m.jnl.Append(r); err != nil {
		panic(fmt.Sprintf("medea: journal append failed: %v", err))
	}
}

// buildCheckpoint serialises the scheduler's durable state. All map
// iterations are sorted so identical states produce identical bytes.
func (m *Medea) buildCheckpoint(now time.Time) *journal.Checkpoint {
	cp := &journal.Checkpoint{
		At:        now,
		Cycles:    m.cycles,
		RepairSeq: m.repairSeq,
		TaskSeq:   m.taskSeq,
		NextRun:   m.nextRun,
		Rejected:  append([]string(nil), m.Rejected...),
		Operator:  m.Constraints.Operator(),
		Breaker:   m.breakerSnapshot(),
	}
	for _, pa := range m.pending {
		cp.Pending = append(cp.Pending, journal.PendingApp{App: pa.app, Submit: pa.submit, Retries: pa.retries})
	}
	for _, appID := range m.DeployedApps() {
		dep := m.deployed[appID]
		da := journal.DeployedApp{App: dep.app, DegradedSince: dep.degradedSince}
		for _, id := range dep.order {
			da.Containers = append(da.Containers, dep.containers[id])
		}
		cp.Deployed = append(cp.Deployed, da)
	}
	for _, appID := range sortedRepairIDs(m.repairs) {
		r := m.repairs[appID]
		cp.Repairs = append(cp.Repairs, journal.RepairItem{
			AppID: appID, Lost: append([]journal.DeployedContainer(nil), r.lost...),
			Attempts: r.attempts, NotBefore: r.notBefore, Since: r.since,
		})
	}
	snap := m.Cluster.TakeSnapshot()
	cp.Cluster = &snap
	return cp
}

// writeCheckpoint persists a checkpoint, fail-stop like logRecord.
func (m *Medea) writeCheckpoint(now time.Time) {
	if err := m.jnl.WriteCheckpoint(m.buildCheckpoint(now)); err != nil {
		panic(fmt.Sprintf("medea: journal checkpoint failed: %v", err))
	}
}

// breakerSnapshot captures the breaker position (nil when disabled).
func (m *Medea) breakerSnapshot() *journal.BreakerState {
	if m.brk == nil {
		return nil
	}
	return m.brk.snapshotState()
}

// SubmitLRA validates an LRA, registers its constraints with the
// constraint manager and queues it for the next scheduling cycle (LRA
// life-cycle steps 1–2, §6).
func (m *Medea) SubmitLRA(app *lra.Application, now time.Time) error {
	if err := app.Validate(); err != nil {
		return err
	}
	if _, ok := m.deployed[app.ID]; ok {
		return fmt.Errorf("core: LRA %s already deployed", app.ID)
	}
	if _, pending := m.PendingRetries(app.ID); pending {
		// A second pending copy would double-register constraints and
		// eventually double-place the app, orphaning one copy's
		// containers when m.deployed[id] is overwritten.
		return fmt.Errorf("core: LRA %s already pending", app.ID)
	}
	if err := m.enqueue(app, now, 0); err != nil {
		return err
	}
	m.logRecord(&journal.Record{Kind: journal.KindSubmit, At: now, App: app, AppID: app.ID})
	return nil
}

// SubmitTasks submits a task-based job. In the default two-scheduler
// configuration it goes directly to the task-based scheduler; in ILP-ALL
// mode it is wrapped as constraint-free LRAs and competes inside the LRA
// scheduler (Figure 11b's strawman).
func (m *Medea) SubmitTasks(appID, queue string, now time.Time, reqs ...taskched.TaskRequest) error {
	if !m.cfg.ScheduleTasksViaLRA {
		return m.Tasks.Submit(appID, queue, now, reqs...)
	}
	for _, r := range reqs {
		m.taskSeq++
		app := &lra.Application{
			ID: fmt.Sprintf("%s-task%d", appID, m.taskSeq),
			Groups: []lra.ContainerGroup{{
				Name: "task", Count: r.Count, Demand: r.Demand, Tags: r.Tags,
			}},
		}
		if err := m.SubmitLRA(app, now); err != nil {
			return err
		}
	}
	return nil
}

// PendingLRAs returns the number of LRAs awaiting a scheduling cycle.
func (m *Medea) PendingLRAs() int { return len(m.pending) }

// Capacity summarises the schedulable capacity of the cluster: resources
// free and total on up nodes, and the node availability split. It is the
// self-report a federation scout scores member clusters by — down or
// draining nodes contribute to neither free nor total, so the score
// tracks what a placement could actually use.
func (m *Medea) Capacity() (free, total resource.Vector, up, nodes int) {
	nodes = m.Cluster.NumNodes()
	for _, n := range m.Cluster.Nodes() {
		if !n.Available() {
			continue
		}
		up++
		free = free.Add(n.Free())
		total = total.Add(n.Capacity)
	}
	return free, total, up, nodes
}

// DeployedLRAs returns the number of currently deployed LRAs.
func (m *Medea) DeployedLRAs() int { return len(m.deployed) }

// Deployed reports whether an LRA is deployed, and its live containers
// (in placement order; fewer than the declared count while degraded).
func (m *Medea) Deployed(appID string) ([]cluster.ContainerID, bool) {
	dep, ok := m.deployed[appID]
	if !ok {
		return nil, false
	}
	return append([]cluster.ContainerID(nil), dep.order...), true
}

// CycleStats summarises one LRA scheduling cycle.
type CycleStats struct {
	Batch      int
	Placed     int
	Requeued   int
	Rejected   int
	AlgLatency time.Duration
	// PlacedIDs and RejectedIDs name the LRAs behind Placed and Rejected,
	// in batch order: what a serving layer that mirrors the batch needs to
	// settle its own records without asking about every app it holds.
	PlacedIDs   []string
	RejectedIDs []string
	// Repaired counts containers restored by the recovery loop this
	// cycle; RepairFailures counts repair batches that failed.
	Repaired       int
	RepairFailures int
	// ValidationRejects counts placements vetoed by commit-time
	// validation this cycle; PanicRecovered reports that the algorithm
	// panicked (the batch was requeued without consuming retries);
	// DeadlineHit reports the solver stopped on its time budget.
	ValidationRejects int
	PanicRecovered    bool
	DeadlineHit       bool
	// Algorithm is the name of the algorithm that served the cycle and
	// Level its degradation-ladder level (0 = the configured algorithm).
	Algorithm string
	Level     int
}

// Tick runs a scheduling cycle if the interval has elapsed. The simulator
// calls this at every event step. Cycle deadlines are anchored on the
// schedule established by the first tick, not on the call time: a tick
// that arrives late (the caller was busy) advances the deadline by whole
// intervals, so cycle boundaries never skew under load, and an idle tick
// leaves the deadline untouched, so work submitted during an idle period
// is scheduled at the next tick rather than a full interval later.
func (m *Medea) Tick(now time.Time) (CycleStats, bool) {
	if m.nextRun.IsZero() {
		m.nextRun = now // first tick anchors the schedule
	}
	if now.Before(m.nextRun) {
		return CycleStats{}, false
	}
	if len(m.pending) == 0 && !m.repairsDue(now) {
		return CycleStats{}, false
	}
	for !m.nextRun.After(now) {
		m.nextRun = m.nextRun.Add(m.cfg.Interval)
	}
	return m.RunCycle(now), true
}

// activeExcluding returns the active constraint entries minus the
// application-sourced entries of the given apps (whose constraints travel
// with the batch itself, to avoid double counting).
func (m *Medea) activeExcluding(exclude map[string]bool) []constraint.Entry {
	var active []constraint.Entry
	for _, e := range m.Constraints.Active() {
		if e.Source == constraint.SourceApplication && exclude[e.AppID] {
			continue
		}
		active = append(active, e)
	}
	return active
}

// safePlace invokes an LRA algorithm with panic isolation: a panicking
// algorithm yields a nil result — callers treat it as a failed cycle —
// with the panic value and stack captured in the pipeline metrics.
func (m *Medea) safePlace(alg lra.Algorithm, apps []*lra.Application, active []constraint.Entry) (res *lra.Result) {
	defer func() {
		if r := recover(); r != nil {
			m.Pipeline.Record(metrics.PanicsRecovered, fmt.Sprintf("%s: %v\n%s", alg.Name(), r, debug.Stack()))
			res = nil
		}
	}()
	return alg.Place(m.Cluster, apps, active, m.cfg.Options)
}

// placeBatch places one cycle's batch. Constraint-independent sub-batches
// (disjoint tag footprints, detected by partitionBatch's union-find) are
// solved concurrently — each solve sees the same pre-cycle cluster state —
// and the per-component results are merged back in submission order, so
// the outcome is identical for every GOMAXPROCS setting and interleaving.
// Capacity conflicts the split cannot see are absorbed downstream by
// commit-time validation and the §5.4 requeue path, in deterministic
// submission order. A panic in ANY component fails the cycle whole
// (matching the single-call contract), and algorithms that declare
// themselves SequentialPlacer place the whole batch in one call.
func (m *Medea) placeBatch(alg lra.Algorithm, apps []*lra.Application, active []constraint.Entry) *lra.Result {
	comps := partitionBatch(apps, active)
	if seq, ok := alg.(lra.SequentialPlacer); len(comps) <= 1 || (ok && seq.PlaceSequentially()) {
		return m.safePlace(alg, apps, active)
	}
	results := make([]*lra.Result, len(comps))
	var wg sync.WaitGroup
	for ci, comp := range comps {
		sub := make([]*lra.Application, len(comp))
		for k, i := range comp {
			sub[k] = apps[i]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[ci] = m.safePlace(alg, sub, active)
		}()
	}
	wg.Wait()
	merged := &lra.Result{Placements: make([]lra.Placement, len(apps))}
	for ci, comp := range comps {
		r := results[ci]
		if r == nil {
			return nil // component panicked: fail the cycle whole
		}
		if len(r.Placements) != len(comp) {
			// Malformed component result: surface an empty (wrong-shaped)
			// result so RunCycle's shape validation requeues the batch.
			return &lra.Result{Latency: r.Latency}
		}
		for k, i := range comp {
			merged.Placements[i] = r.Placements[k]
		}
		if r.Latency > merged.Latency {
			merged.Latency = r.Latency // components ran concurrently: wall-clock is the max
		}
		merged.DeadlineHit = merged.DeadlineHit || r.DeadlineHit
		merged.Exhausted = merged.Exhausted || r.Exhausted
		merged.Invalid = merged.Invalid || r.Invalid
		merged.ExactSolves += r.ExactSolves
		merged.ApproxSolves += r.ApproxSolves
		merged.WarmStarts += r.WarmStarts
	}
	return merged
}

// appEntries wraps an application's own constraints as entries, for
// commit-time validation (the active set excludes batch apps).
func appEntries(app *lra.Application) []constraint.Entry {
	out := make([]constraint.Entry, 0, len(app.Constraints))
	for _, c := range app.Constraints {
		out = append(out, constraint.Entry{
			AppID: app.ID, Source: constraint.SourceApplication, Constraint: c,
		})
	}
	return out
}

// RunCycle invokes the LRA scheduler on the current batch and commits the
// resulting placements through the task-based scheduler (Figure 4 steps
// 1–3). Placements that conflict with the evolved cluster state are
// resubmitted for the next cycle (§5.4). Pending repairs of degraded
// LRAs run first, so restored containers are visible to the batch's
// constraint evaluation.
//
// The cycle runs inside the hardening pipeline: the algorithm is chosen
// by the circuit breaker (possibly a degradation-ladder heuristic),
// invoked with panic isolation, and every proposed placement is validated
// against the live state before commit. A panic requeues the whole batch
// without consuming retry budget; validation rejects consume a retry like
// placement conflicts do. Post-commit, the whole-cluster invariant
// checker runs in the configured audit mode.
func (m *Medea) RunCycle(now time.Time) CycleStats {
	stats := CycleStats{}
	m.cycles++
	if ca, ok := m.alg.(lra.CycleAware); ok {
		// Age the algorithm's cross-cycle memory exactly once per cycle,
		// on the cycle's main goroutine, before any placement runs.
		ca.BeginCycle()
	}
	// Journal the cycle bracket only when there is work: idle cycles
	// change no durable state. The begin-batch record marks the listed
	// pending apps in flight; if the process dies before the matching
	// commit-batch, recovery re-admits them through the pending path.
	journaled := m.jnl != nil && (len(m.pending) > 0 || m.repairsDue(now))
	if journaled {
		ids := make([]string, len(m.pending))
		for i, p := range m.pending {
			ids[i] = p.app.ID
		}
		m.logRecord(&journal.Record{
			Kind: journal.KindBeginBatch, At: now, Cycle: m.cycles, NextRun: m.nextRun, Batch: ids,
		})
	}
	m.runRepairs(now, &stats)

	batch := m.pending
	m.pending = nil
	apps := make([]*lra.Application, len(batch))
	inBatch := make(map[string]bool, len(batch))
	for i, p := range batch {
		apps[i] = p.app
		inBatch[p.app.ID] = true
	}
	stats.Batch = len(batch)
	if len(batch) == 0 {
		m.finishCycle(journaled, now)
		m.auditCycle()
		return stats
	}
	// The batch's own constraints travel with the apps; Active() holds
	// deployed LRAs' and operator constraints. Deployed-app constraints
	// include those of the batch (registered at submit), so exclude the
	// batch apps from the active set to avoid double counting.
	active := m.activeExcluding(inBatch)

	alg, level := m.alg, 0
	if m.brk != nil {
		alg, level = m.brk.algorithm(m.cycles)
	}
	stats.Algorithm = alg.Name()
	stats.Level = level
	if level > 0 {
		m.Pipeline.Add(metrics.DegradedCycles, 1)
	}

	failed, reason := false, ""
	res := m.placeBatch(alg, apps, active)
	switch {
	case res == nil:
		// Panic: not the batch's fault — requeue it whole, retries
		// untouched; the breaker (not the retry budget) handles a
		// persistently panicking algorithm.
		failed, reason = true, "panic"
		stats.PanicRecovered = true
		m.requeueWhole(batch, now, &stats)
	case len(res.Placements) != len(batch):
		// Malformed result shape; indexing it would corrupt accounting.
		failed, reason = true, "validation"
		m.Pipeline.Record(metrics.ValidationRejects, fmt.Sprintf("%s returned %d placements for a batch of %d",
			alg.Name(), len(res.Placements), len(batch)))
		stats.ValidationRejects++
		m.requeueWhole(batch, now, &stats)
	default:
		stats.AlgLatency = res.Latency
		stats.DeadlineHit = res.DeadlineHit
		m.Pipeline.Add(metrics.ExactSolves, res.ExactSolves)
		m.Pipeline.Add(metrics.ApproxSolves, res.ApproxSolves)
		m.Pipeline.Add(metrics.WarmStarts, res.WarmStarts)
		if res.DeadlineHit {
			m.Pipeline.Add(metrics.DeadlineHits, 1)
		}
		if res.Exhausted {
			m.Pipeline.Add(metrics.SolverExhaustions, 1)
			failed, reason = true, "exhausted"
		}
		if res.Invalid {
			m.Pipeline.Add(metrics.InvalidModels, 1)
			failed, reason = true, "invalid-model"
		}
		// entries accumulates the constraints visible to validation:
		// active (deployed + operator) plus batch apps as they commit.
		entries := active
		for i, p := range res.Placements {
			pa := batch[i]
			if !p.Placed {
				// Unplaceable this cycle: retry within budget (resources
				// may free up), then reject.
				m.requeueOrReject(pa, now, &stats)
				continue
			}
			own := appEntries(pa.app)
			all := append(append(make([]constraint.Entry, 0, len(entries)+len(own)), entries...), own...)
			if err := audit.CheckPlacement(m.Cluster, pa.app, &p, all); err != nil {
				// The algorithm proposed an inadmissible placement:
				// reject it before it corrupts cluster state.
				failed, reason = true, "validation"
				m.Pipeline.Record(metrics.ValidationRejects, err.Error())
				stats.ValidationRejects++
				m.requeueOrReject(pa, now, &stats)
				continue
			}
			// Write-ahead: the placement intent is durable before the
			// cluster mutation. If the process dies mid-commit, recovery
			// compares this intent against cluster truth and either adopts
			// the committed containers or re-queues the app; a failed
			// commit below is compensated by the requeue/reject record.
			m.logRecord(&journal.Record{
				Kind: journal.KindPlace, At: now, AppID: p.AppID, Assignments: p.Assignments,
			})
			if err := m.Tasks.Commit(p.Assignments); err != nil {
				// Conflict with task allocations made since the decision:
				// resubmit the LRA (§5.4).
				m.requeueOrReject(pa, now, &stats)
				continue
			}
			m.deploy(pa.app, p.Assignments)
			m.LRALatencies = append(m.LRALatencies, now.Sub(pa.submit)+res.Latency)
			stats.Placed++
			stats.PlacedIDs = append(stats.PlacedIDs, pa.app.ID)
			entries = append(entries, own...)
		}
	}
	if m.brk != nil {
		m.brk.report(m.cycles, failed, reason)
	}
	m.finishCycle(journaled, now)
	m.auditCycle()
	return stats
}

// finishCycle closes a journaled cycle: the commit-batch record resolves
// every in-flight placement intent into deployed state (and carries the
// breaker position), then the periodic checkpoint runs on its cadence.
func (m *Medea) finishCycle(journaled bool, now time.Time) {
	if !journaled {
		return
	}
	m.logRecord(&journal.Record{
		Kind: journal.KindCommitBatch, At: now, Cycle: m.cycles, Breaker: m.breakerSnapshot(),
	})
	if every := m.cfg.checkpointEvery(); every > 0 && m.cycles%every == 0 {
		m.writeCheckpoint(now)
	}
}

// requeueWhole sends a whole batch back to the pending queue (panic or
// malformed result) with each app's retry count unchanged.
func (m *Medea) requeueWhole(batch []*pendingApp, now time.Time, stats *CycleStats) {
	for _, pa := range batch {
		m.requeue(pa, pa.retries)
		m.logRecord(&journal.Record{
			Kind: journal.KindRequeue, At: now, AppID: pa.app.ID, Retries: pa.retries,
		})
	}
	stats.Requeued += len(batch)
}

// auditCycle runs the post-commit whole-cluster invariant checker in the
// configured audit mode.
func (m *Medea) auditCycle() {
	if m.cfg.Audit == audit.Off {
		return
	}
	if err := m.CheckInvariants(); err != nil {
		m.Pipeline.Record(metrics.InvariantViolations, err.Error())
		if m.cfg.Audit == audit.FailFast {
			panic(fmt.Sprintf("medea: invariant violation after cycle %d: %v", m.cycles, err))
		}
	}
}

// CheckInvariants verifies whole-cluster invariants: cluster bookkeeping
// self-consistency and per-node capacity (cluster.CheckAccounting),
// non-negative task-queue accounting, constraint registry ⊆ known
// applications (deployed or pending), and owner-map ↔ deployment
// consistency. It returns the first violation found, or nil.
func (m *Medea) CheckInvariants() error {
	known := func(appID string) bool {
		_, deployed := m.deployed[appID]
		_, pending := m.PendingRetries(appID)
		return deployed || pending
	}
	if err := audit.CheckCluster(m.Cluster, m.Tasks, m.Constraints.Apps(), known); err != nil {
		return err
	}
	for id, appID := range m.owner {
		if _, ok := m.Cluster.ContainerNode(id); !ok {
			return fmt.Errorf("core: owner map references unallocated container %s (app %s)", id, appID)
		}
		dep := m.deployed[appID]
		if dep == nil {
			return fmt.Errorf("core: owner map references undeployed app %s (container %s)", appID, id)
		}
		if _, ok := dep.containers[id]; !ok {
			return fmt.Errorf("core: container %s owned by %s but missing from its deployment", id, appID)
		}
	}
	for appID, dep := range m.deployed {
		for id := range dep.containers {
			if m.owner[id] != appID {
				return fmt.Errorf("core: deployed container %s of %s not in owner map", id, appID)
			}
		}
	}
	return nil
}

func (m *Medea) requeueOrReject(pa *pendingApp, now time.Time, stats *CycleStats) {
	if pa.retries >= m.cfg.maxRetries() {
		m.reject(pa.app.ID)
		stats.Rejected++
		stats.RejectedIDs = append(stats.RejectedIDs, pa.app.ID)
		m.logRecord(&journal.Record{Kind: journal.KindReject, At: now, AppID: pa.app.ID})
		return
	}
	m.requeue(pa, pa.retries+1)
	stats.Requeued++
	// The persisted retry count is the consumed budget: a recovery
	// replaying this record resumes with pa.retries already spent rather
	// than granting a fresh budget.
	m.logRecord(&journal.Record{Kind: journal.KindRequeue, At: now, AppID: pa.app.ID, Retries: pa.retries})
}

// WithdrawLRA withdraws a queued LRA before any cycle places it: the app
// leaves the pending queue, its constraints are unregistered and the
// removal is journaled (replay drops the pending entry the submit record
// re-created). It reports whether the app was pending. The serving
// layer's DELETE path uses it so an app that drained into the core but
// has not deployed yet can still be removed.
func (m *Medea) WithdrawLRA(appID string, now time.Time) bool {
	if _, pending := m.PendingRetries(appID); !pending {
		return false
	}
	m.forget(appID)
	m.logRecord(&journal.Record{Kind: journal.KindRemove, At: now, AppID: appID})
	return true
}

// RemoveLRA tears an LRA down: releases its containers, drops its
// constraints and cancels any pending repair. The teardown intent is
// journaled before the first release, so a crash mid-teardown rolls
// forward: recovery drops the LRA and the orphan sweep releases whatever
// containers the crashed process left behind.
func (m *Medea) RemoveLRA(appID string) error {
	if _, ok := m.deployed[appID]; !ok {
		return fmt.Errorf("core: LRA %s not deployed", appID)
	}
	m.logRecord(&journal.Record{Kind: journal.KindRemove, AppID: appID})
	for _, id := range m.forget(appID) {
		if err := m.Cluster.Release(id); err != nil {
			return err
		}
	}
	return nil
}

// DeployedApps returns the IDs of all deployed LRAs, sorted.
func (m *Medea) DeployedApps() []string {
	out := make([]string, 0, len(m.deployed))
	for appID := range m.deployed {
		out = append(out, appID)
	}
	sort.Strings(out)
	return out
}

// PendingApps returns the IDs of queued LRAs in queue order.
func (m *Medea) PendingApps() []string {
	out := make([]string, 0, len(m.pending))
	for _, pa := range m.pending {
		out = append(out, pa.app.ID)
	}
	return out
}

// PendingRetries returns the consumed retry budget of a queued LRA
// (0, false when the app is not pending).
func (m *Medea) PendingRetries(appID string) (int, bool) {
	for _, pa := range m.pending {
		if pa.app.ID == appID {
			return pa.retries, true
		}
	}
	return 0, false
}

// PendingRepairPieces returns, per degraded LRA, the container IDs
// awaiting repair (IDs sorted per app).
func (m *Medea) PendingRepairPieces() map[string][]cluster.ContainerID {
	out := make(map[string][]cluster.ContainerID, len(m.repairs))
	for appID, r := range m.repairs {
		ids := make([]cluster.ContainerID, 0, len(r.lost))
		for _, c := range r.lost {
			ids = append(ids, c.ID)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		out[appID] = ids
	}
	return out
}

// RepairBudget returns the consumed attempt count of a pending repair
// (0, false when the app has none).
func (m *Medea) RepairBudget(appID string) (int, bool) {
	r, ok := m.repairs[appID]
	if !ok {
		return 0, false
	}
	return r.attempts, true
}

// ActiveEntries returns all currently registered constraints (deployed
// LRAs + operator), for violation evaluation.
func (m *Medea) ActiveEntries() []constraint.Entry { return m.Constraints.Active() }

// Rebalance runs the reactive container-migration planner (§5.4) over the
// deployed LRAs and applies the resulting moves. Task containers never
// move — only LRA containers Medea itself placed. It returns the applied
// plan; moves that fail to re-commit (lost races with task allocations)
// roll back to their original node and are dropped from the plan.
func (m *Medea) Rebalance(opts lra.MigrationOptions) *lra.MigrationPlan {
	if opts.Clock == nil {
		opts.Clock = m.cfg.Clock
	}
	prev := opts.Movable
	opts.Movable = func(id cluster.ContainerID) bool {
		if _, lraOwned := m.owner[id]; !lraOwned {
			return false
		}
		return prev == nil || prev(id)
	}
	plan := lra.PlanMigration(m.Cluster, m.Constraints.Active(), opts)
	applied := plan.Moves[:0]
	for _, mv := range plan.Moves {
		tags, _ := m.Cluster.ContainerTags(mv.Container)
		demand := m.Cluster.ContainerDemand(mv.Container)
		if err := m.Cluster.Release(mv.Container); err != nil {
			continue
		}
		if err := m.Cluster.Allocate(mv.To, mv.Container, demand, tags); err != nil {
			if rerr := m.Cluster.Allocate(mv.From, mv.Container, demand, tags); rerr != nil {
				panic(rerr) // unreachable: restoring the just-released container
			}
			continue
		}
		applied = append(applied, mv)
	}
	plan.Moves = applied
	return plan
}
