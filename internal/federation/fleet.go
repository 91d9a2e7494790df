package federation

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"medea/internal/core"
	"medea/internal/journal"
	"medea/internal/lra"
	"medea/internal/metrics"
	"medea/internal/resource"
	"medea/internal/server"
)

// FleetConfig sizes a simulated federation: N identical member clusters
// plus the scout/balancer layer over them.
type FleetConfig struct {
	// Members is the number of member clusters (0 = 3).
	Members int
	// NodesPerMember / RackSize / NodeCapacity size each member's grid
	// (0 = 16 nodes, racks of 4, 16384 MB × 16 vcores).
	NodesPerMember int
	RackSize       int
	NodeCapacity   resource.Vector
	// Core is each member's scheduler config (zero Interval = 50ms).
	Core core.Config
	// Server is each member's serving config; Clock and Logf are
	// overridden by the fleet's.
	Server server.Config
	// JournalRoot, when set, gives each member a file-backed journal in
	// JournalRoot/<member-id> with the given SyncEvery policy; empty uses
	// in-memory journals.
	JournalRoot string
	SyncEvery   int
	// MakeJournal, when set, supplies each member's journal directly and
	// takes precedence over JournalRoot. The deterministic-simulation
	// harness uses it to hand every member a crash-point-instrumented
	// in-memory journal it keeps a handle on.
	MakeJournal func(memberID string) journal.Journal
	// VirtualDelay puts every member's fault gate in virtual-delay mode:
	// injected slowness surfaces as an immediate DeadlineExceeded instead
	// of a real timer stall (see MemberConfig.VirtualDelay).
	VirtualDelay bool
	// Algorithm builds each member's LRA placement algorithm (nil =
	// Medea-NC); see MemberConfig.Algorithm.
	Algorithm func() lra.Algorithm
	// Scout and Route tune the federation layer.
	Scout ScoutConfig
	Route RouteConfig
	// Clock is the time source shared by members and the balancer
	// (nil = time.Now).
	Clock func() time.Time
	// Logf receives operational lines (nil = discarded).
	Logf func(format string, args ...any)
}

func (c FleetConfig) members() int {
	if c.Members > 0 {
		return c.Members
	}
	return 3
}

func (c FleetConfig) nodesPerMember() int {
	if c.NodesPerMember > 0 {
		return c.NodesPerMember
	}
	return 16
}

func (c FleetConfig) rackSize() int {
	if c.RackSize > 0 {
		return c.RackSize
	}
	return 4
}

func (c FleetConfig) nodeCapacity() resource.Vector {
	if c.NodeCapacity != (resource.Vector{}) {
		return c.NodeCapacity
	}
	return resource.New(16384, 16)
}

func (c FleetConfig) probeInterval() time.Duration {
	if c.Scout.ProbeInterval > 0 {
		return c.Scout.ProbeInterval
	}
	return 50 * time.Millisecond
}

// Fleet is the running federation: the members, the scout watching
// them, and the balancer routing over them. It implements the chaos
// layer's FleetTarget so scripted cluster-level failures can be driven
// against it.
type Fleet struct {
	cfg      FleetConfig
	Members  []*Member
	Scout    *Scout
	Balancer *Balancer
	Stats    *metrics.FedStats

	cancel context.CancelFunc
	done   chan struct{}
	mu     sync.Mutex
	byID   map[string]*Member
	// runCtx is the context Start ran under; a member restarted while the
	// fleet is live gets its scheduling loop relaunched on it.
	runCtx context.Context
	// rolling is the in-flight rolling restart, nil when idle.
	rolling *rollingState
}

// rollPhase is a rolling restart's position for the current member.
type rollPhase int

const (
	rollDraining   rollPhase = iota // waiting for the member's drain
	rollConfirming                  // restarted; awaiting detector health
)

// rollingState walks the fleet one member at a time: drain, restart from
// journal, rejoin, then re-confirm health before touching the next — at
// most one member is ever down on purpose.
type rollingState struct {
	queue []string // members not yet restarted (current first)
	phase rollPhase
	// drainStarted marks that the current member's drain was issued:
	// after that the rolling only observes DrainActive. Re-issuing
	// DrainMember every round would resurrect a drain that finished by
	// exhausting its retry budget — with a fresh budget, forever.
	drainStarted bool
	restartedAt  time.Time
}

// NewFleet builds the federation.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Core.Interval == 0 {
		cfg.Core.Interval = 50 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.Core.Clock == nil {
		cfg.Core.Clock = cfg.Clock
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	now := cfg.Clock()
	f := &Fleet{cfg: cfg, Stats: &metrics.FedStats{}, byID: make(map[string]*Member)}
	for i := 0; i < cfg.members(); i++ {
		id := fmt.Sprintf("cluster-%d", i)
		var jnl journal.Journal
		if cfg.MakeJournal != nil {
			jnl = cfg.MakeJournal(id)
		} else if cfg.JournalRoot != "" {
			fj, err := journal.OpenDirWith(filepath.Join(cfg.JournalRoot, id), journal.FileConfig{SyncEvery: cfg.SyncEvery})
			if err != nil {
				return nil, fmt.Errorf("federation: journal for %s: %w", id, err)
			}
			jnl = fj
		}
		srvCfg := cfg.Server
		srvCfg.Clock = cfg.Clock
		srvCfg.Logf = nil // member chatter stays out of the fleet log
		m, err := NewMember(MemberConfig{
			ID:           id,
			Nodes:        cfg.nodesPerMember(),
			RackSize:     cfg.rackSize(),
			NodeCap:      cfg.nodeCapacity(),
			Core:         cfg.Core,
			Server:       srvCfg,
			Journal:      jnl,
			Now:          now,
			VirtualDelay: cfg.VirtualDelay,
			Algorithm:    cfg.Algorithm,
		})
		if err != nil {
			return nil, err
		}
		f.Members = append(f.Members, m)
		f.byID[id] = m
	}
	f.Scout = NewScout(cfg.Scout, f.Members, f.Stats)
	f.Balancer = NewBalancer(cfg.Route, f.Scout, f.Stats, cfg.Logf)
	return f, nil
}

// Start runs every member's scheduling loop plus the federation control
// loop (probe + failover + degraded retry) in real time until ctx is
// done.
func (f *Fleet) Start(ctx context.Context) {
	ctx, f.cancel = context.WithCancel(ctx)
	f.done = make(chan struct{})
	f.mu.Lock()
	f.runCtx = ctx
	f.mu.Unlock()
	for _, m := range f.Members {
		m.Start(ctx)
	}
	go func() {
		defer close(f.done)
		t := time.NewTicker(f.cfg.probeInterval())
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				now := f.cfg.Clock()
				f.Balancer.Step(now)
				f.stepRolling(now)
			}
		}
	}()
}

// Step drives one synchronous fleet round at now: every live member's
// scheduling loop, then the federation control loop (tests and
// deterministic harnesses).
func (f *Fleet) Step(now time.Time) {
	for _, m := range f.Members {
		m.Step()
	}
	f.Balancer.Step(now)
	f.stepRolling(now)
}

// Close stops the loops and closes every member's journal.
func (f *Fleet) Close() {
	if f.cancel != nil {
		f.cancel()
		<-f.done
		f.cancel = nil
	}
	for _, m := range f.Members {
		m.Close()
		_ = m.Jnl.Close()
	}
}

// MemberIDs implements the chaos FleetTarget.
func (f *Fleet) MemberIDs() []string { return f.Scout.MemberIDs() }

// CrashMember implements the chaos FleetTarget: the member's loop stops
// and its API becomes unreachable, as if the cluster's scheduler host
// died (RestartMember revives it from its journal). Reports whether the
// member exists.
func (f *Fleet) CrashMember(id string) bool {
	m := f.byID[id]
	if m == nil {
		return false
	}
	m.Crash()
	return true
}

// RestartMember implements the chaos FleetTarget: a crashed member's
// scheduler is rebuilt from its journal against live cluster truth and
// rejoins the fleet (the failure detector revives it on its next
// successful probe). Reports false for unknown, never-crashed, or
// unrecoverable members.
func (f *Fleet) RestartMember(id string) bool {
	m := f.byID[id]
	if m == nil || !m.Gate.Crashed() {
		return false
	}
	if err := m.Restart(f.cfg.Clock()); err != nil {
		f.cfg.Logf("federation: %v", err)
		return false
	}
	// A fleet running in real time relaunches the member's scheduling
	// loop; Step-driven fleets drive the member synchronously instead.
	f.mu.Lock()
	runCtx := f.runCtx
	f.mu.Unlock()
	if runCtx != nil && runCtx.Err() == nil {
		m.Start(runCtx)
	}
	return true
}

// DrainFleetMember starts a planned evacuation of one member via the
// balancer (the chaos layer's drain hook). Reports whether the member
// exists.
func (f *Fleet) DrainFleetMember(id string) bool {
	return f.Balancer.DrainMember(id) == nil
}

// StartRollingRestart begins a fleet-wide rolling restart: members are
// drained, restarted from their journals, and re-confirmed healthy one
// at a time. Reports false if one is already running.
func (f *Fleet) StartRollingRestart() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.rolling != nil {
		return false
	}
	f.rolling = &rollingState{queue: f.MemberIDs(), phase: rollDraining}
	f.cfg.Logf("federation: rolling restart started (%d members)", len(f.rolling.queue))
	return true
}

// RollingActive reports whether a rolling restart is in flight.
func (f *Fleet) RollingActive() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.rolling != nil
}

// stepRolling advances the rolling restart one control round.
func (f *Fleet) stepRolling(now time.Time) {
	f.mu.Lock()
	r := f.rolling
	f.mu.Unlock()
	if r == nil {
		return
	}
	if len(r.queue) == 0 {
		f.mu.Lock()
		f.rolling = nil
		f.mu.Unlock()
		f.Stats.Add(metrics.RollingRestarts, 1)
		f.cfg.Logf("federation: rolling restart complete")
		return
	}
	current := r.queue[0]
	switch r.phase {
	case rollDraining:
		if !r.drainStarted {
			if err := f.Balancer.DrainMember(current); err != nil {
				return
			}
			r.drainStarted = true
			return
		}
		if f.Balancer.DrainActive(current) {
			return // still evacuating
		}
		// Drained (possibly as a no-op if the member died organically):
		// restart it from its journal. A member already crashed by chaos
		// is revived the same way.
		if !f.byID[current].Gate.Crashed() {
			f.CrashMember(current)
		}
		if !f.RestartMember(current) {
			// Unrecoverable journal: abort the rolling restart rather than
			// marching on and taking a second member down.
			f.mu.Lock()
			f.rolling = nil
			f.mu.Unlock()
			f.cfg.Logf("federation: rolling restart aborted: %s did not come back", current)
			return
		}
		r.restartedAt = now
		r.phase = rollConfirming
		f.cfg.Logf("federation: rolling restart: %s restarted from journal", current)
	case rollConfirming:
		// Gate on the failure detector re-confirming health with a report
		// fresher than the restart before touching the next member.
		rep, ok := f.Scout.LastReport(current)
		if f.Scout.State(current, now) == Dead || !ok || !rep.At.After(r.restartedAt) {
			return
		}
		f.Balancer.CancelDrain(current) // lift the cordon
		r.queue = r.queue[1:]
		r.phase = rollDraining
		r.drainStarted = false
		f.cfg.Logf("federation: rolling restart: %s healthy again (%d to go)", current, len(r.queue))
	}
}

// PartitionMember implements the chaos FleetTarget: the member keeps
// scheduling but the balancer cannot reach it.
func (f *Fleet) PartitionMember(id string, partitioned bool) bool {
	m := f.byID[id]
	if m == nil {
		return false
	}
	m.Gate.Partition(partitioned)
	return true
}

// SlowMember implements the chaos FleetTarget: every Nth request to the
// member stalls for delay — the Byzantine slow-but-alive case the
// failure detector must not confuse with death.
func (f *Fleet) SlowMember(id string, delay time.Duration, every int) bool {
	m := f.byID[id]
	if m == nil {
		return false
	}
	m.Gate.Slow(delay, every)
	return true
}

// HealMember implements the chaos FleetTarget: partition and slowness
// are lifted (a crash is a process fault — RestartMember undoes it).
func (f *Fleet) HealMember(id string) bool {
	m := f.byID[id]
	if m == nil {
		return false
	}
	m.Gate.Heal()
	return true
}
