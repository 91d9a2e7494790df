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
	"slices"
	"sort"
	"time"

	"medea/internal/audit"
	"medea/internal/cluster"
	"medea/internal/constraint"
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
	// of LRA scheduling latency. Zero or negative selects the default of
	// 10s (§7.1). It is also the base delay between repair attempts for
	// one LRA; consecutive failures back off exponentially from it.
	Interval time.Duration
	// MaxRetries bounds LRA resubmission after placement conflicts (§5.4).
	// The zero value selects the default of 3; a negative value disables
	// retries entirely (an LRA that fails its first cycle is rejected) —
	// without the sentinel, "no retries" would be unexpressible.
	MaxRetries int

	// SolverBudget bounds the wall-clock time of each component's solve:
	// it flows through the algorithm's lra.Options into
	// ilp.Options.Deadline, which the simplex pivot loops and
	// branch-and-bound both honor. A cycle places its constraint
	// components one after the other and hands each the whole budget, so
	// a cycle with k components that solve may take up to k budgets. A
	// value ≤ 0 selects lra.DefaultSolverBudget.
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

	// CheckpointEvery is ignored: the journal decides when a checkpoint
	// is due (journal.Journal.UntilCheckpoint). The field remains until
	// its last setters go.
	CheckpointEvery int

	// Clock is the wall-clock source for what core reads outside the
	// caller-supplied scheduler time: the algorithms' latency stamps and
	// ILP deadlines, and Recover's RecoveryWallTime stamp (nil =
	// time.Now). Deterministic simulation injects its virtual clock so
	// placements and recovered state are bit-identical.
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

// repairMaxRetries is a repair's retry budget, beside MaxRetries for a
// new LRA (DESIGN §7 says why repairs keep their own).
const repairMaxRetries = 5

// repairBackoffCap caps the exponential repair backoff, as a multiple of
// the base delay.
const repairBackoffCap = 8

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

	// repairs holds at most one repair per degraded LRA, keyed by appID.
	repairs map[string]*pendingApp

	// Recovery aggregates failure-recovery counters (evictions, repairs,
	// MTTR, degraded time).
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

	// Rejected lists LRAs dropped after exhausting conflict retries or
	// found unplaceable.
	Rejected []string

	// jnl is the attached write-ahead journal (nil = volatile scheduler).
	jnl journal.Journal

	// epoch numbers this incarnation of the journal's state: 1 for a
	// scheduler built by New, one more than the checkpoint's for one built
	// by Recover, which writes it durably before anything is served.
	epoch uint64
}

// New builds a Medea instance over a cluster, with the given LRA
// algorithm and task queues.
func New(c *cluster.Cluster, alg lra.Algorithm, cfg Config, queues ...taskched.QueueConfig) *Medea {
	if cfg.Interval <= 0 {
		cfg.Interval = 10 * time.Second
	}
	if cfg.SolverBudget <= 0 {
		cfg.SolverBudget = lra.DefaultSolverBudget
	}
	m := &Medea{
		Cluster:     c,
		Constraints: constraint.NewManager(),
		Tasks:       taskched.New(c, queues...),
		alg:         alg,
		cfg:         cfg,
		deployed:    make(map[string]*deployment),
		owner:       make(map[cluster.ContainerID]string),
		repairs:     make(map[string]*pendingApp),
		epoch:       1,
	}
	if cfg.BreakerThreshold >= 0 {
		m.brk = newBreaker(alg, cfg.breakerThreshold(), cfg.breakerCooldown(), &m.Pipeline)
	}
	return m
}

// AttachJournal makes the scheduler's state durable: every subsequent
// state transition appends a write-ahead record to j, and a cycle that
// ends with a checkpoint due (journal.Journal.UntilCheckpoint) writes one.
// An initial checkpoint of the current state is written immediately, so
// Recover always has a base to replay onto. now stamps that checkpoint.
func (m *Medea) AttachJournal(j journal.Journal, now time.Time) error {
	m.jnl = j
	return j.WriteCheckpoint(m.buildCheckpoint(now))
}

// JournalLag returns the number of WAL records appended since the last
// checkpoint — the replay tail a recovery would face. Zero when no
// journal is attached or the backend does not expose lag.
func (m *Medea) JournalLag() int {
	if lg, ok := m.jnl.(journal.Lagger); ok {
		return lg.Lag()
	}
	return 0
}

// Checkpoint forces a full durable-state checkpoint now, due or not.
// The serving layer uses it on graceful drain (persist everything before
// exit) and after operator-constraint changes (which have no WAL record
// of their own). No-op without an attached journal.
func (m *Medea) Checkpoint(now time.Time) error {
	if m.jnl == nil {
		return nil
	}
	return m.jnl.WriteCheckpoint(m.buildCheckpoint(now))
}

// Epoch returns the incarnation number of the scheduler's durable state.
// No two incarnations over one journal share it: Recover takes the
// checkpoint's and adds one, and the checkpoint it writes before
// returning makes the new number durable. It is read from the journal,
// not from a clock or a random source, so a simulated restart numbers
// its incarnations the same way every run.
func (m *Medea) Epoch() uint64 { return m.epoch }

// SetSolverBudget adjusts the solver wall-clock budget at runtime; like
// Config.SolverBudget it bounds each component's solve, not the cycle.
// The serving layer uses it for deadline propagation: when queued
// submissions carry request deadlines, the scheduling loop clamps the
// budget to the tightest remaining deadline before running the cycle and
// restores it afterwards. A non-positive d selects
// lra.DefaultSolverBudget.
func (m *Medea) SetSolverBudget(d time.Duration) {
	if d <= 0 {
		d = lra.DefaultSolverBudget
	}
	m.cfg.SolverBudget = d
}

// SolverBudget returns the currently configured solver budget, never
// zero.
func (m *Medea) SolverBudget() time.Duration { return m.cfg.SolverBudget }

// logRecord stages one WAL record, fail-stop: a scheduler that cannot
// persist a state transition must not keep applying it.
func (m *Medea) logRecord(r *journal.Record) {
	if m.jnl == nil {
		return
	}
	if err := m.jnl.Append(r); err != nil {
		panic(fmt.Sprintf("medea: journal append failed: %v", err))
	}
}

// Sync makes every journal record staged so far durable: one barrier on
// the attached journal (no-op without one, or with nothing staged). The
// core takes its own write-ahead barriers before the cluster mutations
// its records announce; a serving layer calls Sync before it reveals
// state newer than the last barrier to a client.
func (m *Medea) Sync() error {
	if m.jnl == nil {
		return nil
	}
	return m.jnl.Barrier()
}

// barrier is the write-ahead Sync before a cluster mutation, fail-stop
// like logRecord: the mutation must not run ahead of its record.
func (m *Medea) barrier() {
	if err := m.Sync(); err != nil {
		panic(fmt.Sprintf("medea: journal barrier failed: %v", err))
	}
}

// buildCheckpoint serialises the scheduler's durable state. All map
// iterations are sorted so identical states produce identical bytes.
func (m *Medea) buildCheckpoint(now time.Time) *journal.Checkpoint {
	cp := &journal.Checkpoint{
		At:       now,
		Cycles:   m.cycles,
		NextRun:  m.nextRun,
		Rejected: append([]string(nil), m.Rejected...),
		Operator: m.Constraints.Operator(),
		Breaker:  m.breakerSnapshot(),
		Epoch:    m.epoch,
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
		pa := m.repairs[appID]
		cp.Repairs = append(cp.Repairs, journal.RepairItem{
			AppID: appID, Lost: append([]journal.DeployedContainer(nil), pa.repair.lost...),
			Attempts: pa.retries, NotBefore: pa.repair.notBefore, Since: pa.submit,
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

// SubmitTasks submits a task-based job to the task-based scheduler.
func (m *Medea) SubmitTasks(appID, queue string, now time.Time, reqs ...taskched.TaskRequest) error {
	return m.Tasks.Submit(appID, queue, now, reqs...)
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
	// Batch counts the batch's new LRAs, whose verdicts are the next
	// three; Repaired and RepairFailures count its repairs.
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
	// Repaired counts containers restored by the cycle's repairs;
	// RepairFailures counts repair attempts that failed and consumed
	// budget.
	Repaired       int
	RepairFailures int
	// ValidationRejects counts placements vetoed by commit-time
	// validation this cycle; PanicRecovered reports that the algorithm
	// panicked (the batch was requeued, the repair kept its gate, neither
	// consuming budget);
	// DeadlineHit reports the solver stopped on its time budget.
	ValidationRejects int
	PanicRecovered    bool
	DeadlineHit       bool
	// Algorithm is the name of the algorithm that served the cycle and
	// Level its degradation-ladder level (0 = the configured algorithm).
	Algorithm string
	Level     int

	// fault is the reason the cycle failed under the fault rule ("" =
	// clean); the breaker hears whether it is set.
	fault string
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
// with the batch itself, to avoid double counting). It filters Active's
// fresh list in place.
func (m *Medea) activeExcluding(exclude map[string]bool) []constraint.Entry {
	return slices.DeleteFunc(m.Constraints.Active(), func(e constraint.Entry) bool {
		return e.Source == constraint.SourceApplication && exclude[e.AppID]
	})
}

// safePlace invokes an LRA algorithm on m.Cluster with panic isolation:
// a panicking algorithm yields a nil result — callers treat it as a
// failed cycle — and is counted in the pipeline metrics. Place returns
// m.Cluster as it found it, a recovered panic included.
func (m *Medea) safePlace(alg lra.Algorithm, apps []*lra.Application, active []constraint.Entry) (res *lra.Result) {
	defer func() {
		if r := recover(); r != nil {
			m.Pipeline.Add(metrics.PanicsRecovered, 1)
			res = nil
		}
	}()
	return alg.Place(m.Cluster, apps, active, lra.Options{SolverBudget: m.cfg.SolverBudget, Clock: m.cfg.Clock})
}

// placeBatch places one cycle's batch, one constraint-independent
// component (partitionBatch's union-find over tag footprints) after the
// other on m.Cluster, and merges the per-component results back in
// submission order. Every component plans on the pre-cycle state: Place
// returns m.Cluster as it found it, so each component sees what the
// first one saw, and each gets the cycle's full SolverBudget. An
// algorithm that is a SequentialPlacer places the whole batch in one
// call. Capacity conflicts the split cannot see are absorbed downstream
// by commit-time validation and the §5.4 requeue path, in deterministic
// submission order. A panic in ANY component fails the cycle whole
// (matching the single-call contract).
func (m *Medea) placeBatch(alg lra.Algorithm, apps []*lra.Application, active []constraint.Entry) *lra.Result {
	comps := [][]int{nil} // nil: the whole batch
	if seq, ok := alg.(lra.SequentialPlacer); !ok || !seq.PlaceSequentially() {
		comps = partitionBatch(apps, active)
	}
	results := make([]*lra.Result, len(comps))
	for ci, comp := range comps {
		results[ci] = m.safePlace(alg, subBatch(apps, comp), active)
	}
	if len(comps) == 1 {
		return results[0]
	}
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
		merged.Latency += r.Latency
		merged.DeadlineHit = merged.DeadlineHit || r.DeadlineHit
		merged.Exhausted = merged.Exhausted || r.Exhausted
		merged.Invalid = merged.Invalid || r.Invalid
		merged.ExactSolves += r.ExactSolves
		merged.Nodes += r.Nodes
		merged.WarmStarts += r.WarmStarts
		merged.DecidedPlaces += r.DecidedPlaces
		merged.SolverDecodes += r.SolverDecodes
		merged.SolverCommits += r.SolverCommits
	}
	return merged
}

// subBatch returns the apps of one component: the batch itself when the
// component is all of it (nil, or every index in order).
func subBatch(apps []*lra.Application, comp []int) []*lra.Application {
	if comp == nil || len(comp) == len(apps) {
		return apps
	}
	sub := make([]*lra.Application, len(comp))
	for k, i := range comp {
		sub[k] = apps[i]
	}
	return sub
}

// appendAppEntries appends an application's own constraints to dst as
// entries, for commit-time validation (the active set excludes batch
// apps).
func appendAppEntries(dst []constraint.Entry, app *lra.Application) []constraint.Entry {
	for _, c := range app.Constraints {
		dst = append(dst, constraint.Entry{
			AppID: app.ID, Source: constraint.SourceApplication, Constraint: c,
		})
	}
	return dst
}

// RunCycle invokes the LRA scheduler on the current batch (takeBatch)
// and commits the resulting placements through the task-based scheduler
// (Figure 4 steps 1–3). Placements that conflict with the evolved
// cluster state are resubmitted for the next cycle (§5.4).
//
// The cycle runs inside the hardening pipeline. A cycle with work takes
// its algorithm from the circuit breaker once, possibly a
// degradation-ladder heuristic, and places its batch with it, one call
// per component, each with panic isolation. The result answers to the
// one fault rule (judge, veto), and the breaker hears one report. Every proposed placement is validated
// before commit. The intents of the accepted placements are made durable
// by one write-ahead barrier before the first commit. Post-commit, the
// whole-cluster invariant checker runs in the configured audit mode.
func (m *Medea) RunCycle(now time.Time) CycleStats {
	stats := CycleStats{}
	m.cycles++
	batch := m.takeBatch(now)
	// Idle cycles change no durable state and leave the breaker alone.
	if len(batch) == 0 {
		m.auditCycle()
		return stats
	}
	// The begin-batch record marks the listed entries in flight; if the
	// process dies before the matching commit-batch, recovery puts those
	// that did not commit back in line.
	if m.jnl != nil {
		ids := make([]string, len(batch))
		for i, pa := range batch {
			ids[i] = pa.app.ID
		}
		m.logRecord(&journal.Record{
			Kind: journal.KindBeginBatch, At: now, Cycle: m.cycles, NextRun: m.nextRun, Batch: ids,
		})
	}
	alg, level := m.alg, 0
	if m.brk != nil {
		alg, level = m.brk.algorithm()
	}
	stats.Algorithm = alg.Name()
	stats.Level = level
	if level > 0 {
		m.Pipeline.Add(metrics.DegradedCycles, 1)
	}
	m.runBatch(alg, batch, now, &stats)
	if m.brk != nil {
		m.brk.report(stats.fault != "")
	}
	m.finishCycle(now)
	m.auditCycle()
	return stats
}

// takeBatch takes the cycle's batch in flight: every repair past its
// backoff gate, in appID order, so its replacements commit before a new
// LRA can take their room, then the pending queue, which it empties.
func (m *Medea) takeBatch(now time.Time) []*pendingApp {
	batch := m.pending
	m.pending = nil
	if len(m.repairs) == 0 {
		return batch
	}
	var due []*pendingApp
	for _, appID := range sortedRepairIDs(m.repairs) {
		if pa := m.repairs[appID]; !pa.repair.notBefore.After(now) {
			due = append(due, pa)
		}
	}
	return append(due, batch...)
}

// judge is the fault rule, applied to the cycle's algorithm result for
// n entries. A panic (nil result) or a malformed result (not one
// placement per entry) fails the cycle and is unusable; it costs the
// entries nothing (requeueWhole), since a crashing algorithm is the
// scheduler's fault. Solver exhaustion and an invalid model fail the
// cycle, but the placements are still used. judge reports whether they
// are.
func (m *Medea) judge(res *lra.Result, n int, stats *CycleStats) bool {
	switch {
	case res == nil:
		stats.PanicRecovered = true
		stats.fault = "panic"
		return false
	case len(res.Placements) != n:
		m.veto(stats)
		return false
	}
	if res.Exhausted {
		m.Pipeline.Add(metrics.SolverExhaustions, 1)
		stats.fault = "exhausted"
	}
	if res.Invalid {
		m.Pipeline.Add(metrics.InvalidModels, 1)
		stats.fault = "invalid-model"
	}
	return true
}

// veto is the fault rule's verdict on an inadmissible placement, rejected
// before it corrupts cluster state: it fails the cycle, and the caller
// consumes the entry's retry.
func (m *Medea) veto(stats *CycleStats) {
	m.Pipeline.Add(metrics.ValidationRejects, 1)
	stats.ValidationRejects++
	stats.fault = "validation"
}

// runBatch places the batch with alg and commits what validates.
func (m *Medea) runBatch(alg lra.Algorithm, batch []*pendingApp, now time.Time, stats *CycleStats) {
	apps := make([]*lra.Application, len(batch))
	inBatch := make(map[string]bool, len(batch))
	for i, pa := range batch {
		apps[i] = pa.app
		if pa.repair != nil {
			apps[i] = repairApp(pa)
		} else {
			stats.Batch++
		}
		inBatch[pa.app.ID] = true
	}
	// The batch's own constraints travel with the apps; Active() holds
	// deployed LRAs' and operator constraints, the batch's among them
	// (registered at submit, or deployed), so exclude the batch apps
	// from the active set to avoid double counting.
	active := m.activeExcluding(inBatch)
	res := m.placeBatch(alg, apps, active)
	if !m.judge(res, len(batch), stats) {
		m.requeueWhole(batch, now, stats)
		return
	}
	stats.AlgLatency = res.Latency
	stats.DeadlineHit = res.DeadlineHit
	m.Pipeline.Add(metrics.ExactSolves, res.ExactSolves)
	m.Pipeline.Add(metrics.WarmStarts, res.WarmStarts)
	m.Pipeline.Add(metrics.DecidedPlaces, res.DecidedPlaces)
	m.Pipeline.Add(metrics.SolverDecodes, res.SolverDecodes)
	m.Pipeline.Add(metrics.SolverCommits, res.SolverCommits)
	if res.DeadlineHit {
		m.Pipeline.Add(metrics.DeadlineHits, 1)
	}
	accepted := m.validateBatch(batch, res.Placements, active, stats)
	// Stage the verdicts in batch order: an intent for each accepted
	// placement, a requeue or reject for the rest.
	for i, p := range res.Placements {
		if !accepted[i] {
			// Unplaceable or vetoed this cycle: retry within budget
			// (resources may free up), then give up.
			m.requeueOrReject(batch[i], now, stats)
			continue
		}
		m.logRecord(&journal.Record{
			Kind: journal.KindPlace, At: now, AppID: batch[i].app.ID, Assignments: p.Assignments,
		})
	}
	// Write-ahead: the intents are durable before the first cluster
	// mutation, one barrier for the batch. If the process dies
	// mid-commit, recovery compares each intent against cluster truth
	// and either adopts the committed containers or puts the entry back
	// in line; a failed commit below is compensated by the requeue/reject
	// record.
	if slices.Contains(accepted, true) {
		m.barrier()
	}
	for i, p := range res.Placements {
		if !accepted[i] {
			continue
		}
		pa := batch[i]
		if err := m.Tasks.Commit(p.Assignments); err != nil {
			// Conflict with task allocations made since the decision:
			// resubmit the entry (§5.4).
			m.requeueOrReject(pa, now, stats)
			continue
		}
		n, healedSince := m.commit(pa, p.Assignments)
		if pa.repair == nil {
			stats.Placed++
			stats.PlacedIDs = append(stats.PlacedIDs, pa.app.ID)
			continue
		}
		m.Recovery.RepairsPlaced += n
		stats.Repaired += n
		// Repair latency is eviction→commit in scheduler time; the
		// algorithm's wall-clock solve latency is tracked separately
		// (res.Latency) so the metric stays deterministic under
		// simulation.
		m.Recovery.ObserveRepair(now.Sub(pa.submit))
		if !healedSince.IsZero() {
			m.Recovery.AddDegraded(now.Sub(healedSince))
		}
	}
}

// validateBatch is commit-time validation of a cycle's proposals, in
// batch order, in place on the live cluster: each placed proposal is
// checked against the placements accepted before it and under their
// constraints, which is what its commit meets once they have committed
// in order. A repair's proposal is checked, and committed, as
// remapRepair maps it onto the lost containers. A veto undoes itself;
// the accepted placements are undone in reverse batch order before it
// returns, so the write-ahead barrier and the commits that follow meet
// the pre-cycle cluster. It reports which proposals were accepted.
//
// The constraints of each check are one list: active, then the own
// entries of every repaired LRA (deployed, so binding whether or not its
// repair is accepted), then those of the accepted new LRAs before the
// proposal and of the proposal itself, truncated off again on a veto. The list grows in
// active's spare capacity: the caller owns active and reads nothing past
// its length.
func (m *Medea) validateBatch(batch []*pendingApp, placements []lra.Placement, active []constraint.Entry, stats *CycleStats) []bool {
	accepted := make([]bool, len(placements))
	own := 0
	for i := range placements {
		if placements[i].Placed || batch[i].repair != nil {
			own += len(batch[i].app.Constraints)
		}
	}
	entries := slices.Grow(active, own)
	for _, pa := range batch {
		if pa.repair != nil {
			entries = appendAppEntries(entries, pa.app)
		}
	}
	for i := range placements {
		p := &placements[i]
		if !p.Placed {
			continue
		}
		n, app := len(entries), batch[i].app
		if pa := batch[i]; pa.repair != nil {
			remapped, ok := remapRepair(pa, p)
			if !ok {
				m.veto(stats)
				continue
			}
			p.Assignments, app = remapped, nil
		} else {
			entries = appendAppEntries(entries, app)
		}
		if audit.CheckPlacement(m.Cluster, app, p, entries) != nil {
			m.veto(stats)
			entries = entries[:n]
			continue
		}
		accepted[i] = true
	}
	for i := len(placements) - 1; i >= 0; i-- {
		if accepted[i] {
			audit.Undo(m.Cluster, placements[i].Assignments)
		}
	}
	return accepted
}

// finishCycle closes a journaled cycle: the commit-batch record resolves
// every in-flight placement intent into deployed state (and carries the
// breaker position), then a checkpoint is written if the log has grown
// enough to be due one.
func (m *Medea) finishCycle(now time.Time) {
	if m.jnl == nil {
		return
	}
	m.logRecord(&journal.Record{
		Kind: journal.KindCommitBatch, At: now, Cycle: m.cycles, Breaker: m.breakerSnapshot(),
	})
	if m.jnl.UntilCheckpoint() <= 0 {
		m.writeCheckpoint(now)
	}
}

// requeueWhole sends a batch's new LRAs back to the pending queue (panic
// or malformed result) with each app's retry count unchanged; its
// repairs keep their place, attempt count and gate, and write nothing.
func (m *Medea) requeueWhole(batch []*pendingApp, now time.Time, stats *CycleStats) {
	for _, pa := range batch {
		if pa.repair != nil {
			continue
		}
		m.requeue(pa, pa.retries, now)
		m.logRecord(&journal.Record{
			Kind: journal.KindRequeue, At: now, AppID: pa.app.ID, Retries: pa.retries,
		})
		stats.Requeued++
	}
}

// auditCycle runs the post-commit whole-cluster invariant checker in the
// configured audit mode.
func (m *Medea) auditCycle() {
	if m.cfg.Audit == audit.Off {
		return
	}
	if err := m.CheckInvariants(); err != nil {
		m.Pipeline.Add(metrics.InvariantViolations, 1)
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

// requeueOrReject is the one retry rule, for both kinds of entry: an
// entry the cycle could not place, that was vetoed or that lost its
// commit race consumes one retry and goes back in line, or is given up
// once its budget is spent: MaxRetries for a new LRA, repairMaxRetries
// for a repair.
func (m *Medea) requeueOrReject(pa *pendingApp, now time.Time, stats *CycleStats) {
	repair, budget := pa.repair != nil, m.cfg.maxRetries()
	if repair {
		budget = repairMaxRetries
		m.Recovery.RepairAttemptsFailed++
		stats.RepairFailures++
	}
	if pa.retries >= budget {
		since := m.reject(pa)
		m.logRecord(&journal.Record{Kind: journal.KindReject, At: now, AppID: pa.app.ID})
		if repair {
			// The LRA stays degraded. Close the accounting window here:
			// degraded time measures the repair loop's responsiveness,
			// not the (unbounded) aftermath.
			m.Recovery.RepairsAbandoned++
			m.Recovery.AddDegraded(now.Sub(since))
			return
		}
		stats.Rejected++
		stats.RejectedIDs = append(stats.RejectedIDs, pa.app.ID)
		return
	}
	m.requeue(pa, pa.retries+1, now)
	// The persisted retry count is the consumed budget: a recovery
	// replaying this record resumes with pa.retries already spent rather
	// than granting a fresh budget.
	m.logRecord(&journal.Record{Kind: journal.KindRequeue, At: now, AppID: pa.app.ID, Retries: pa.retries})
	if !repair {
		stats.Requeued++
	}
}

// WithdrawLRA withdraws a queued LRA before any cycle places it: the app
// leaves the pending queue, its constraints are unregistered and the
// removal is journaled (replay drops the pending entry the submit record
// re-created). It reports whether the app was pending. The serving
// layer's DELETE path uses it so an app that drained into the core but
// has not deployed yet can still be removed; the record is only staged,
// so that path Syncs before it answers.
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
// durable before the first release, so a crash mid-teardown rolls
// forward: recovery drops the LRA and the orphan sweep releases whatever
// containers the crashed process left behind.
func (m *Medea) RemoveLRA(appID string) error {
	if _, ok := m.deployed[appID]; !ok {
		return fmt.Errorf("core: LRA %s not deployed", appID)
	}
	m.logRecord(&journal.Record{Kind: journal.KindRemove, AppID: appID})
	m.barrier()
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
	for appID, pa := range m.repairs {
		ids := make([]cluster.ContainerID, 0, len(pa.repair.lost))
		for _, c := range pa.repair.lost {
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
	pa, ok := m.repairs[appID]
	if !ok {
		return 0, false
	}
	return pa.retries, true
}

// ActiveEntries returns all currently registered constraints (deployed
// LRAs + operator), for violation evaluation.
func (m *Medea) ActiveEntries() []constraint.Entry { return m.Constraints.Active() }
