package dst

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"medea/internal/chaos"
	"medea/internal/cluster"
	"medea/internal/core"
	"medea/internal/federation"
	"medea/internal/journal"
	"medea/internal/lra"
	"medea/internal/resource"
	"medea/internal/server"
)

// shadowEvery is how often (in events) the checker recovers a clone of
// every member's journal and diffs it against the live member.
const shadowEvery = 25

// maxLostRounds bounds how many federation rounds one app may stay in
// the balancer's audit as Lost before the harness calls it a violation.
// Repair only happens on steps, so rounds — not events — are the right
// unit: anti-entropy reads a home's outcome feed the round after its
// probe shows a new outcome, and re-lists a restarted home's apps,
// reading homeCheckBatch of them per round, so a genuine
// crash-swallowed ack is re-queued within a handful of rounds, well
// inside this window even when intermittent slowness eats some probes
// and reads.
const maxLostRounds = 25

// minSilentRounds is the fewest federation rounds of probe silence that
// can legitimately confirm a member dead: the phi detector requires
// federation.ConfirmMisses consecutive missed probes, one probe per
// round.
const minSilentRounds = federation.ConfirmMisses

// epoch is the fixed virtual-time origin; nothing in a run reads the
// wall clock.
var epoch = time.Unix(1_600_000_000, 0).UTC()

type harness struct {
	cfg     Config
	coreCfg core.Config
	now     time.Time
	fleet   *federation.Fleet

	mems map[string]*journal.Memory
	cjs  map[string]*chaos.CrashJournal
	// armed is the member whose CrashJournal has a pending kill point
	// ("" = none). At most one member is armed at a time, so a recovered
	// crash panic is attributed unambiguously.
	armed string

	// Client-side truth: which submissions got a 2xx, which removals
	// got a 200. The checker compares this against the balancer ledger.
	acked   map[string]bool
	removed map[string]bool

	crashed     map[string]bool
	partitioned map[string]bool
	round       int

	// prevReportAt / lastOKRound track the last successful probe the
	// checker has observed per member (a probe success is the only thing
	// that advances LastReport.At). A Dead verdict is only legitimate
	// after minSilentRounds rounds without one.
	prevReportAt map[string]time.Time
	lastOKRound  map[string]int

	// lostSince is the federation round at which an app first appeared in
	// the audit's Lost list, cleared the moment it leaves it.
	lostSince map[string]int

	// migarm is the pending migration crash point (nil = none): when the
	// balancer's migration hook reaches this point for this app, the
	// victim dies. Armed by EvMigrate, fired at most once.
	migarm *migCrashArm

	trace bytes.Buffer
}

// migCrashArm is one armed migration crash: at which protocol point,
// for which app, and who dies there ("balancer" or a member ID).
type migCrashArm struct {
	point  federation.MigPoint
	app    string
	victim string
}

func (h *harness) clock() time.Time { return h.now }

func (h *harness) ms() int64 { return h.now.Sub(epoch).Milliseconds() }

func (h *harness) tracef(format string, args ...any) {
	fmt.Fprintf(&h.trace, format+"\n", args...)
}

func (h *harness) member(id string) *federation.Member { return h.fleet.Scout.Member(id) }

// guard runs fn and absorbs an injected crash panic: the armed member's
// process dies at its kill point, mid-operation, exactly as a real
// crash-before-fsync would. Any other panic is a harness bug and is
// re-raised.
func (h *harness) guard(fn func()) (died bool) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if !chaos.IsCrash(r) || h.armed == "" {
			panic(r)
		}
		id := h.armed
		h.armed = ""
		h.cjs[id].KillAt = 0
		h.member(id).Gate.Crash()
		h.crashed[id] = true
		h.tracef("    !! %s crashed at its kill point (torn tail)", id)
		died = true
	}()
	fn()
	return false
}

func newHarness(cfg Config) (*harness, error) {
	h := &harness{
		cfg:          cfg,
		now:          epoch,
		mems:         make(map[string]*journal.Memory),
		cjs:          make(map[string]*chaos.CrashJournal),
		acked:        make(map[string]bool),
		removed:      make(map[string]bool),
		crashed:      make(map[string]bool),
		partitioned:  make(map[string]bool),
		prevReportAt: make(map[string]time.Time),
		lastOKRound:  make(map[string]int),
		lostSince:    make(map[string]int),
	}
	h.coreCfg = core.Config{
		Interval: 25 * time.Millisecond,
		Clock:    h.clock,
	}
	fc := federation.FleetConfig{
		Members:        cfg.members(),
		NodesPerMember: cfg.nodes(),
		RackSize:       4,
		NodeCapacity:   resource.New(16384, 16),
		Core:           h.coreCfg,
		Server:         server.Config{QueueCap: 64, Clock: h.clock},
		MakeJournal: func(id string) journal.Journal {
			mem := journal.NewMemory()
			cj := &chaos.CrashJournal{Journal: mem}
			h.mems[id] = mem
			h.cjs[id] = cj
			return cj
		},
		// The members run the ILP scheduler; a restart loses its
		// in-memory solver state (the arena pool), exactly like a real
		// process.
		Algorithm: lra.NewILP,
		// Both timeouts sit below the 40 ms delay every slow event
		// injects, so every injected stall blows its deadline. The
		// transport decides that from the declared durations alone:
		// wall-clock time never decides an outcome.
		Scout: federation.ScoutConfig{
			ProbeInterval: 25 * time.Millisecond,
			ProbeTimeout:  30 * time.Millisecond,
		},
		Route: federation.RouteConfig{
			AttemptTimeout: 30 * time.Millisecond,
			MaxRounds:      2,
			Sleep:          func(time.Duration) {},
			Clock:          h.clock,
		},
		Clock: h.clock,
		Logf:  func(format string, args ...any) { h.tracef("    [fed] "+format, args...) },
	}
	fleet, err := federation.NewFleet(fc)
	if err != nil {
		return nil, err
	}
	h.fleet = fleet
	// The migration hook is the crash injector for the two-phase
	// protocol. It is installed unconditionally (it is inert until an
	// EvMigrate arms it) and fires at most once per arming: a "balancer"
	// victim makes the hook return true, which drops the wire response
	// before its ledger transition — the exact window a balancer crash
	// would strand; a member victim is killed mid-protocol instead.
	h.fleet.Balancer.SetMigrationHook(func(point federation.MigPoint, app string) bool {
		arm := h.migarm
		if arm == nil || arm.point != point || arm.app != app {
			return false
		}
		h.migarm = nil
		if arm.victim == "balancer" {
			h.tracef("    !! balancer crash simulated at %s for %s", point, app)
			return true
		}
		if !h.crashed[arm.victim] {
			h.member(arm.victim).Gate.Crash()
			h.crashed[arm.victim] = true
			h.tracef("    !! %s killed at %s for %s", arm.victim, point, app)
		}
		return false
	})
	return h, nil
}

// syncCrashed refreshes the harness's crashed-member view from the fault
// gates: a rolling restart crashes and revives members from inside
// Fleet.Step, where the event loop cannot see it happen.
func (h *harness) syncCrashed() {
	for _, m := range h.fleet.Members {
		h.crashed[m.ID] = m.Gate.Crashed()
	}
}

// RunSeed generates the seed's schedule and runs it.
func RunSeed(cfg Config) *Result {
	return Run(cfg, Generate(cfg))
}

// Run executes an event schedule. It is a pure function of (cfg shape,
// events): no RNG, no wall clock, single-threaded — which is what makes
// the trace byte-identical across runs and schedules sliceable by the
// minimizer.
func Run(cfg Config, events []Event) *Result {
	h, err := newHarness(cfg)
	if err != nil {
		// Harness construction failing is not a scheduler bug to
		// minimize; surface it loudly.
		panic(fmt.Sprintf("dst: building harness: %v", err))
	}
	defer h.fleet.Close()
	return h.run(events)
}

// run drives the schedule against an already-built harness. Split from
// Run so tests can keep the harness (journals, fleet) alive afterwards
// for post-mortem properties like prefix recovery.
func (h *harness) run(events []Event) *Result {
	cfg := h.cfg
	h.tracef("dst: seed=%d members=%d nodes=%d events=%d", cfg.Seed, cfg.members(), cfg.nodes(), len(events))

	// Warmup: a few healthy rounds so the scout has capacity reports and
	// the phi detector has learned its inter-arrival distribution.
	for i := 0; i < 6; i++ {
		h.now = h.now.Add(25 * time.Millisecond)
		h.round++
		h.fleet.Step(h.now)
	}
	for _, m := range h.fleet.Members {
		if rep, ok := h.fleet.Scout.LastReport(m.ID); ok {
			h.prevReportAt[m.ID] = rep.At
			h.lastOKRound[m.ID] = h.round
		}
	}

	res := &Result{}
	for i, ev := range events {
		h.now = h.now.Add(time.Duration(ev.AdvanceMs) * time.Millisecond)
		if v := h.apply(i, ev); v != nil {
			res.Violation = v
			break
		}
		if v := h.check(i, false); v != nil {
			res.Violation = v
			break
		}
		if (i+1)%shadowEvery == 0 {
			if v := h.shadowCheck(i); v != nil {
				res.Violation = v
				break
			}
		}
		res.Executed++
	}
	if res.Violation == nil {
		res.Violation = h.settle()
	}
	if res.Violation != nil {
		h.tracef("VIOLATION %s at event %d: %s", res.Violation.Name, res.Violation.Event, res.Violation.Detail)
	} else {
		h.tracef("dst: pass (%d events)", res.Executed)
	}
	res.Trace = append([]byte(nil), h.trace.Bytes()...)
	return res
}

// apply executes one event against the stack. Events that no longer fit
// the current state (restart of a live member, removal of an unknown
// app) are no-ops: delta-debugging must be free to slice schedules.
func (h *harness) apply(i int, ev Event) *Violation {
	h.tracef("[%d] +%dms %s", i, h.ms(), ev.describe())
	switch ev.Kind {
	case EvSubmit, EvResubmit:
		req := &server.SubmitRequest{
			ID: ev.App,
			Groups: []server.GroupSpec{{
				Name: "g", Count: ev.Containers, MemoryMB: ev.MemMB, VCores: ev.VCores,
			}},
		}
		var home string
		var err error
		if h.guard(func() { home, err = h.fleet.Balancer.Submit(req) }) {
			h.tracef("    submit interrupted by member crash")
			break
		}
		if err != nil {
			h.tracef("    not acked: %v", err)
			break
		}
		h.acked[ev.App] = true
		delete(h.removed, ev.App)
		h.tracef("    acked home=%s", home)

	case EvRemove:
		if !h.acked[ev.App] {
			h.tracef("    noop: never acked")
			break
		}
		var err error
		if h.guard(func() { err = h.fleet.Balancer.Remove(ev.App) }) {
			h.tracef("    remove interrupted by member crash")
			break
		}
		if err != nil {
			h.tracef("    remove failed: %v", err)
			break
		}
		delete(h.acked, ev.App)
		h.removed[ev.App] = true
		h.tracef("    removed")

	case EvStep:
		h.round++
		h.guard(func() { h.fleet.Step(h.now) })
		h.syncCrashed()

	case EvCrash:
		id := ev.Member
		if h.crashed[id] {
			h.tracef("    noop: already crashed")
			break
		}
		if ev.KillIn > 0 && h.armed == "" {
			cj := h.cjs[id]
			cj.KillAt = cj.Ops + ev.KillIn
			h.armed = id
			h.tracef("    armed: dies before durability op %d (now at %d)", cj.KillAt, cj.Ops)
			break
		}
		if h.armed == id {
			h.armed = ""
			h.cjs[id].KillAt = 0
		}
		h.member(id).Gate.Crash()
		h.crashed[id] = true
		h.tracef("    crashed")

	case EvRestart:
		id := ev.Member
		if !h.crashed[id] {
			h.tracef("    noop: not crashed")
			break
		}
		h.cjs[id].KillAt = 0 // a fresh process is not under the old sentence
		if h.armed == id {
			h.armed = ""
		}
		if err := h.member(id).Restart(h.now); err != nil {
			return &Violation{Name: VioRestartFailed, Event: i, Detail: err.Error()}
		}
		h.crashed[id] = false
		h.tracef("    restarted from journal")

	case EvPartition:
		h.member(ev.Member).Gate.Partition(true)
		h.partitioned[ev.Member] = true

	case EvSlow:
		m := h.member(ev.Member)
		m.Gate.Slow(time.Duration(ev.DelayMs)*time.Millisecond, ev.Every)
		m.Gate.SlowTail(0, 0)

	case EvSlowTail:
		m := h.member(ev.Member)
		m.Gate.SlowTail(time.Duration(ev.DelayMs)*time.Millisecond, ev.Every)
		m.Gate.Slow(0, 0)

	case EvHeal:
		h.member(ev.Member).Gate.Heal()
		h.partitioned[ev.Member] = false
		// Heal also lifts a planned drain, so generated schedules
		// exercise drain cancellation (and its uncordon) too.
		h.fleet.Balancer.CancelDrain(ev.Member)

	case EvNodeFault:
		h.applyNodeFault(ev)

	case EvInject:
		app := h.firstPlacedApp()
		if app == "" {
			h.tracef("    noop: nothing placed to forget")
			break
		}
		h.fleet.Balancer.Forget(app)
		h.tracef("    injected: ledger entry for %s dropped", app)

	case EvMigrate:
		if !h.acked[ev.App] {
			h.tracef("    noop: never acked")
			break
		}
		if ev.MigPoint != "" {
			h.migarm = &migCrashArm{
				point:  federation.MigPoint(ev.MigPoint),
				app:    ev.App,
				victim: ev.Victim,
			}
		}
		if err := h.fleet.Balancer.Migrate(ev.App, ev.Dest); err != nil {
			h.migarm = nil
			h.tracef("    not started: %v", err)
			break
		}
		h.tracef("    migration started")

	case EvDrainMember:
		if err := h.fleet.Balancer.DrainMember(ev.Member); err != nil {
			h.tracef("    not started: %v", err)
			break
		}
		h.tracef("    drain started")

	case EvRollingRestart:
		if !h.fleet.StartRollingRestart() {
			h.tracef("    noop: rolling restart already active")
			break
		}
		h.tracef("    rolling restart started")
	}
	return nil
}

// applyNodeFault drives the event's node lists. A live member's core is
// driven through its journaled entry points; a crashed member's nodes
// keep failing and recovering underneath it — applied straight to the
// cluster, for the restarted scheduler to reconcile from its journal.
func (h *harness) applyNodeFault(ev Event) {
	m := h.member(ev.Member)
	if h.crashed[ev.Member] {
		cl := m.Med.Cluster
		for _, n := range ev.Fail {
			cl.FailNode(cluster.NodeID(n))
		}
		for _, n := range ev.Drain {
			cl.DrainNode(cluster.NodeID(n))
		}
		for _, n := range ev.Recover {
			cl.RecoverNode(cluster.NodeID(n))
		}
		h.tracef("    applied to crashed member's cluster")
		return
	}
	if h.guard(func() {
		for _, n := range ev.Fail {
			m.Med.FailNode(cluster.NodeID(n), h.now)
		}
		for _, n := range ev.Drain {
			m.Med.DrainNode(cluster.NodeID(n), h.now)
		}
		for _, n := range ev.Recover {
			m.Med.RecoverNode(cluster.NodeID(n), h.now)
		}
	}) {
		h.tracef("    node fault interrupted by member crash")
	}
}

// firstPlacedApp picks the inject victim deterministically: the first
// (by ID) acknowledged app the ledger currently shows homed.
func (h *harness) firstPlacedApp() string {
	var ids []string
	for id := range h.acked {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if home, ok := h.fleet.Balancer.Home(id); ok && home != "" {
			return id
		}
	}
	return ""
}

// settle is the end-of-run quiescence phase: every fault is lifted,
// every crashed member restarted, every down node recovered, and the
// fleet stepped until reconciliation has nothing left to do — then the
// strict invariants must hold: nothing lost, nothing duplicated,
// journals in agreement with live state.
func (h *harness) settle() *Violation {
	h.tracef("settle: healing faults, restarting crashed members")
	h.armed = ""
	// A pending migration crash point is an unexploded fault, exactly
	// like an armed torn-WAL kill: settle defuses both.
	h.migarm = nil
	for _, cj := range h.cjs {
		cj.KillAt = 0
	}
	for _, m := range h.fleet.Members {
		m.Gate.Heal()
		h.partitioned[m.ID] = false
	}
	for _, m := range h.fleet.Members {
		if !h.crashed[m.ID] {
			continue
		}
		if err := m.Restart(h.now); err != nil {
			return &Violation{Name: VioRestartFailed, Event: -1, Detail: err.Error()}
		}
		h.crashed[m.ID] = false
	}
	for _, m := range h.fleet.Members {
		for n := 0; n < m.Med.Cluster.NumNodes(); n++ {
			if m.Med.Cluster.Node(cluster.NodeID(n)).State() != cluster.NodeUp {
				m.Med.RecoverNode(cluster.NodeID(n), h.now)
			}
		}
	}
	// Run the fleet until the audit is clean, bounded; then hold it to
	// the strict standard. The bound is large: a rolling restart caught
	// mid-flight cycles every member through drain → crash → restart →
	// re-confirm, one at a time, and every in-flight migration must
	// finish or roll back before quiescence. A single unfittable move is
	// the worst case: its commit phase burns the full waits budget
	// watching the destination's own requeue-then-reject cycle before
	// each of its bounded retries, so one resolution can cost several
	// hundred rounds on its own.
	const minSteps, maxSteps = 20, 1500
	for i := 0; i < maxSteps; i++ {
		h.now = h.now.Add(25 * time.Millisecond)
		h.round++
		h.fleet.Step(h.now)
		h.syncCrashed()
		// A rolling restart aborting mid-settle can leave its current
		// member down; quiescence means everyone comes back.
		for _, m := range h.fleet.Members {
			if !h.crashed[m.ID] {
				continue
			}
			if err := m.Restart(h.now); err != nil {
				return &Violation{Name: VioRestartFailed, Event: -1, Detail: err.Error()}
			}
			h.crashed[m.ID] = false
		}
		if i+1 >= minSteps {
			rep := h.fleet.Balancer.Audit(h.now)
			if len(rep.Lost) == 0 && rep.Reconciling == 0 &&
				len(h.fleet.Balancer.Migrations()) == 0 &&
				len(h.fleet.Balancer.ActiveDrains()) == 0 &&
				!h.fleet.RollingActive() {
				break
			}
		}
	}
	rep := h.fleet.Balancer.Audit(h.now)
	h.tracef("settle: routed=%d placed=%d degraded=%d rejected=%d reconciling=%d lost=%d",
		rep.Routed, rep.Placed, rep.Degraded, rep.Rejected, rep.Reconciling, len(rep.Lost))
	if migs := h.fleet.Balancer.Migrations(); len(migs) > 0 {
		return &Violation{
			Name:   VioMigration,
			Event:  -1,
			Detail: fmt.Sprintf("after settle these migrations are still unresolved: %v", migs),
		}
	}
	if v := h.check(-1, true); v != nil {
		return v
	}
	return h.shadowCheck(-1)
}
