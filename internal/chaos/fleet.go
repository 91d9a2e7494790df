package chaos

import (
	"fmt"
	"sort"
	"time"
)

// FleetTarget is the cluster-level fault surface a federation exposes to
// the chaos layer — the federated analogue of Target's node-level
// FailNode/RecoverNode. Every method reports whether the member exists.
type FleetTarget interface {
	MemberIDs() []string
	// CrashMember kills a member cluster's scheduler: loop stopped, API
	// unreachable, process state lost.
	CrashMember(id string) bool
	// RestartMember rebuilds a crashed member's scheduler from its
	// journal; false if the member is unknown, alive, or unrecoverable.
	RestartMember(id string) bool
	// PartitionMember severs (true) or restores (false) the network to a
	// member that keeps running.
	PartitionMember(id string, partitioned bool) bool
	// SlowMember makes every Nth request to the member stall for delay —
	// the Byzantine slow-but-alive case.
	SlowMember(id string, delay time.Duration, every int) bool
	// HealMember lifts partition and slowness.
	HealMember(id string) bool
}

// FleetEventKind enumerates scripted cluster-level faults.
type FleetEventKind int

const (
	// FleetCrash kills the member.
	FleetCrash FleetEventKind = iota
	// FleetPartition severs the member's network.
	FleetPartition
	// FleetSlow injects per-request delay (Delay, Every).
	FleetSlow
	// FleetHeal lifts partition and slowness.
	FleetHeal
	// FleetRestart rebuilds a crashed member from its journal.
	FleetRestart
	// FleetDrain cordons the member and evacuates its applications to
	// the rest of the fleet. Requires a target that also implements
	// DrainFleetMember(string) bool.
	FleetDrain
	// FleetRollingRestart drains, restarts, and re-confirms every member
	// one at a time. Member is ignored. Requires a target that also
	// implements StartRollingRestart() bool.
	FleetRollingRestart
)

func (k FleetEventKind) String() string {
	switch k {
	case FleetCrash:
		return "crash"
	case FleetPartition:
		return "partition"
	case FleetSlow:
		return "slow"
	case FleetHeal:
		return "heal"
	case FleetRestart:
		return "restart"
	case FleetDrain:
		return "drain"
	case FleetRollingRestart:
		return "rolling-restart"
	}
	return "unknown"
}

// FleetEvent is one scripted fault: Kind applied to Member once elapsed
// run time reaches After.
type FleetEvent struct {
	After  time.Duration
	Kind   FleetEventKind
	Member string
	// Delay and Every parameterise FleetSlow.
	Delay time.Duration
	Every int
}

// FleetScript applies a fixed fault schedule against a FleetTarget —
// deterministic by construction: events fire in After order exactly
// once, driven by whoever owns the clock (a test's fake time or a
// harness's wall time). No goroutines, no RNG.
type FleetScript struct {
	events  []FleetEvent
	applied []bool
}

// NewFleetScript builds a script; events are sorted by After (stable, so
// equal-time events keep declaration order).
func NewFleetScript(events ...FleetEvent) *FleetScript {
	s := &FleetScript{events: append([]FleetEvent(nil), events...)}
	sort.SliceStable(s.events, func(i, j int) bool { return s.events[i].After < s.events[j].After })
	s.applied = make([]bool, len(s.events))
	return s
}

// ApplyDue fires every not-yet-applied event whose After has passed at
// elapsed, returning how many fired. Unknown members are an error — a
// script that silently misses its target would void the experiment.
func (s *FleetScript) ApplyDue(t FleetTarget, elapsed time.Duration) (int, error) {
	fired := 0
	for i, e := range s.events {
		if s.applied[i] || e.After > elapsed {
			continue
		}
		var ok bool
		switch e.Kind {
		case FleetCrash:
			ok = t.CrashMember(e.Member)
		case FleetPartition:
			ok = t.PartitionMember(e.Member, true)
		case FleetSlow:
			ok = t.SlowMember(e.Member, e.Delay, e.Every)
		case FleetHeal:
			ok = t.HealMember(e.Member)
		case FleetRestart:
			ok = t.RestartMember(e.Member)
		case FleetDrain:
			// Drain and rolling restart are newer capabilities; targets
			// opt in by implementing the extra method rather than by
			// widening FleetTarget under every existing implementor.
			if d, can := t.(interface{ DrainFleetMember(string) bool }); can {
				ok = d.DrainFleetMember(e.Member)
			}
		case FleetRollingRestart:
			if r, can := t.(interface{ StartRollingRestart() bool }); can {
				ok = r.StartRollingRestart()
			}
		}
		if !ok {
			return fired, fmt.Errorf("chaos: fleet event %d (%s %s) has no target", i, e.Kind, e.Member)
		}
		s.applied[i] = true
		fired++
	}
	return fired, nil
}
