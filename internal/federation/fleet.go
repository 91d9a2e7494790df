package federation

import (
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
	// JournalRoot/<member-id>; empty uses in-memory journals.
	JournalRoot string
	// MakeJournal, when set, supplies each member's journal directly and
	// takes precedence over JournalRoot. The deterministic-simulation
	// harness uses it to hand every member a crash-point-instrumented
	// in-memory journal it keeps a handle on.
	MakeJournal func(memberID string) journal.Journal
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

// Fleet is the federation: the members, the scout watching them, and the
// balancer routing over them, driven one synchronous round at a time by
// Step on the caller's clock. Faults are injected on a member itself
// (Scout.Member(id).Gate, Member.Restart), never through the Fleet.
type Fleet struct {
	cfg      FleetConfig
	Members  []*Member
	Scout    *Scout
	Balancer *Balancer
	Stats    *metrics.FedStats

	mu sync.Mutex
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
	f := &Fleet{cfg: cfg, Stats: &metrics.FedStats{}}
	for i := 0; i < cfg.members(); i++ {
		id := fmt.Sprintf("cluster-%d", i)
		var jnl journal.Journal
		if cfg.MakeJournal != nil {
			jnl = cfg.MakeJournal(id)
		} else if cfg.JournalRoot != "" {
			fj, err := journal.OpenDir(filepath.Join(cfg.JournalRoot, id))
			if err != nil {
				return nil, fmt.Errorf("federation: journal for %s: %w", id, err)
			}
			jnl = fj
		}
		srvCfg := cfg.Server
		srvCfg.Clock = cfg.Clock
		srvCfg.Logf = nil // member chatter stays out of the fleet log
		m, err := NewMember(MemberConfig{
			ID:        id,
			Nodes:     cfg.nodesPerMember(),
			RackSize:  cfg.rackSize(),
			NodeCap:   cfg.nodeCapacity(),
			Core:      cfg.Core,
			Server:    srvCfg,
			Journal:   jnl,
			Now:       now,
			Algorithm: cfg.Algorithm,
		})
		if err != nil {
			return nil, err
		}
		f.Members = append(f.Members, m)
	}
	f.Scout = NewScout(cfg.Scout, f.Members, f.Stats)
	f.Balancer = NewBalancer(cfg.Route, f.Scout, f.Stats, cfg.Logf)
	return f, nil
}

// Step drives one synchronous fleet round at now: every live member's
// scheduling loop, then the federation control loop (probe, failover,
// drains and moves, anti-entropy, degraded retry, rolling restart).
// Clients may call the balancer concurrently with it.
func (f *Fleet) Step(now time.Time) {
	for _, m := range f.Members {
		m.Step()
	}
	f.Balancer.Step(now)
	f.stepRolling(now)
}

// Close closes every member's journal.
func (f *Fleet) Close() {
	for _, m := range f.Members {
		_ = m.Jnl.Close()
	}
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
	f.rolling = &rollingState{queue: f.Scout.MemberIDs(), phase: rollDraining}
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
		m := f.Scout.Member(current)
		m.Gate.Crash()
		if err := m.Restart(f.cfg.Clock()); err != nil {
			f.cfg.Logf("federation: %v", err)
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
