package dst

import (
	"fmt"
	"math/rand"

	"medea/internal/cluster"
	"medea/internal/failure"
)

// EventKind names one schedule event. Kinds are strings so artifacts
// stay readable and stable across refactors.
type EventKind string

const (
	// EvSubmit routes a fresh application through the balancer.
	EvSubmit EventKind = "submit"
	// EvResubmit re-submits an earlier app ID (possibly already placed,
	// possibly removed) — the duplicate-submission race.
	EvResubmit EventKind = "resubmit"
	// EvRemove tears an acknowledged app down through the balancer.
	EvRemove EventKind = "remove"
	// EvStep advances the whole fleet one synchronous round: every live
	// member's scheduling loop, then the federation control loop.
	EvStep EventKind = "step"
	// EvCrash kills a member process. KillIn 0 kills it immediately;
	// KillIn > 0 arms a torn-WAL crash that fires right before the
	// KillIn-th next durability operation reaches the journal.
	EvCrash EventKind = "crash"
	// EvRestart rebuilds a crashed member from its journal.
	EvRestart EventKind = "restart"
	// EvPartition severs a member's network (process keeps running).
	EvPartition EventKind = "partition"
	// EvSlow makes every Every-th request to a member fail its deadline
	// before being served (slow-but-alive). Every is always >= 2, so a
	// correct failure detector must never confirm the member dead.
	EvSlow EventKind = "slow"
	// EvSlowTail makes every Every-th request serve and then drop the
	// ack — the member did the work, the caller saw a timeout.
	EvSlowTail EventKind = "slowtail"
	// EvHeal lifts a member's partition and slowness.
	EvHeal EventKind = "heal"
	// EvNodeFault applies explicit node fail/drain/recover lists to one
	// member, sampled at generation time from an internal/failure
	// service-unit trace. The lists make the schedule self-contained: a
	// replayed artifact needs no RNG to reproduce the exact fault.
	EvNodeFault EventKind = "nodefault"
	// EvInject is the deliberate bookkeeping hole (Config.Inject): the
	// first placed app is dropped from the balancer's ledger while its
	// member keeps running it. The checker must catch this.
	EvInject EventKind = "inject"
	// EvSolverMode flips one member's ILP solving path (exact / auto /
	// approx) and its cross-cycle warm-start memory at runtime.
	EvSolverMode EventKind = "solvermode"
	// EvMigrate starts a two-phase cross-cluster migration of App to
	// Dest. MigPoint, when set, arms a crash at that protocol point:
	// Victim "balancer" drops the response before the ledger transition
	// (a simulated balancer crash the next Step must recover from); any
	// other Victim kills that member process at the same instant.
	EvMigrate EventKind = "migrate"
	// EvDrainMember cordons a member and evacuates its applications to
	// the rest of the fleet.
	EvDrainMember EventKind = "drainmember"
	// EvRollingRestart drains, restarts and re-confirms every member one
	// at a time.
	EvRollingRestart EventKind = "rollingrestart"
)

// Event is one schedule entry. Exactly the fields its Kind needs are
// set; an event applied to a state it no longer fits (restart of a live
// member, removal of an app never acked) degrades to a no-op, which is
// what lets delta-debugging slice schedules freely.
type Event struct {
	Kind EventKind `json:"kind"`
	// AdvanceMs is how far the virtual clock advances before the event.
	AdvanceMs int64 `json:"advance_ms"`

	Member string `json:"member,omitempty"`

	App        string `json:"app,omitempty"`
	Containers int    `json:"containers,omitempty"`
	MemMB      int64  `json:"mem_mb,omitempty"`
	VCores     int64  `json:"vcores,omitempty"`

	DelayMs int64 `json:"delay_ms,omitempty"`
	Every   int   `json:"every,omitempty"`

	KillIn int `json:"kill_in,omitempty"`

	Fail    []int `json:"fail,omitempty"`
	Drain   []int `json:"drain,omitempty"`
	Recover []int `json:"recover,omitempty"`

	// SolverMode / DisableWarm carry an EvSolverMode flip ("exact",
	// "auto" or "approx"; warm memory off when DisableWarm).
	SolverMode  string `json:"solver_mode,omitempty"`
	DisableWarm bool   `json:"disable_warm,omitempty"`

	// Dest / MigPoint / Victim carry an EvMigrate: the destination
	// member, the armed crash point ("" = clean migration) and who dies
	// there ("balancer" or a member ID).
	Dest     string `json:"dest,omitempty"`
	MigPoint string `json:"mig_point,omitempty"`
	Victim   string `json:"victim,omitempty"`
}

func (e Event) describe() string {
	switch e.Kind {
	case EvSubmit, EvResubmit:
		return fmt.Sprintf("%s %s %dx(%dMB,%dvc)", e.Kind, e.App, e.Containers, e.MemMB, e.VCores)
	case EvRemove, EvInject:
		return fmt.Sprintf("%s %s", e.Kind, e.App)
	case EvCrash:
		return fmt.Sprintf("crash %s kill_in=%d", e.Member, e.KillIn)
	case EvSlow, EvSlowTail:
		return fmt.Sprintf("%s %s delay=%dms every=%d", e.Kind, e.Member, e.DelayMs, e.Every)
	case EvNodeFault:
		return fmt.Sprintf("nodefault %s fail=%v drain=%v recover=%v", e.Member, e.Fail, e.Drain, e.Recover)
	case EvSolverMode:
		return fmt.Sprintf("solvermode %s mode=%s disable_warm=%v", e.Member, e.SolverMode, e.DisableWarm)
	case EvMigrate:
		if e.MigPoint != "" {
			return fmt.Sprintf("migrate %s -> %s crash=%s victim=%s", e.App, e.Dest, e.MigPoint, e.Victim)
		}
		return fmt.Sprintf("migrate %s -> %s", e.App, e.Dest)
	case EvRollingRestart:
		return "rolling-restart"
	case EvStep:
		return "step"
	default:
		return fmt.Sprintf("%s %s", e.Kind, e.Member)
	}
}

// Generate derives the whole event schedule from the seed. This is the
// ONLY place the RNG is consumed: the schedule that comes out is plain
// data, and Run executes it RNG-free. Node faults are sampled from an
// internal/failure service-unit trace (one SU per member) and baked in
// as explicit node lists, so a schedule — or any slice of it that
// delta-debugging keeps — replays identically.
func Generate(cfg Config) []Event {
	rng := rand.New(rand.NewSource(cfg.Seed))
	members := cfg.members()
	nodes := cfg.nodes()
	want := cfg.events()

	hours := want/8 + 4
	// Spikier than the paper's baseline: a DST hour is a few virtual
	// seconds, and the point is exercising the repair machinery.
	trace := failure.Generate(rng, failure.Config{
		ServiceUnits: members, Hours: hours,
		BaselineMean: 0.02, SpikeStartProb: 0.05, SpikeMeanHours: 2,
	})
	nodeIDs := make([]cluster.NodeID, nodes)
	for i := range nodeIDs {
		nodeIDs[i] = cluster.NodeID(i)
	}

	memberID := func(i int) string { return fmt.Sprintf("cluster-%d", i) }
	advance := func() int64 {
		if rng.Intn(10) == 0 {
			return 250 // an occasional long lull: deadlines expire, phi grows
		}
		return 25
	}

	var (
		out     []Event
		appSeq  int
		apps    []string
		crashed = make(map[int]bool)
		down    = make([]map[int]bool, members)
		hour    int
	)
	for i := range down {
		down[i] = make(map[int]bool)
	}

	newSubmit := func(id string) Event {
		return Event{
			Kind:       EvSubmit,
			App:        id,
			Containers: 1 + rng.Intn(4),
			MemMB:      256 * int64(1+rng.Intn(8)),
			VCores:     int64(1 + rng.Intn(4)),
		}
	}

	for len(out) < want {
		ev := Event{AdvanceMs: advance()}
		roll := rng.Intn(1000)
		switch {
		case roll < 300: // submit
			appSeq++
			id := fmt.Sprintf("app-%03d", appSeq)
			s := newSubmit(id)
			s.AdvanceMs = ev.AdvanceMs
			ev = s
			apps = append(apps, id)
		case roll < 340: // solver-mode flip
			ev.Kind = EvSolverMode
			ev.Member = memberID(rng.Intn(members))
			ev.SolverMode = []string{"exact", "auto", "approx"}[rng.Intn(3)]
			ev.DisableWarm = rng.Intn(4) == 0
		case roll < 460: // step
			ev.Kind = EvStep
		case roll < 520: // cross-cluster migration
			if len(apps) == 0 {
				ev.Kind = EvStep
				break
			}
			ev.Kind = EvMigrate
			ev.App = apps[rng.Intn(len(apps))]
			ev.Dest = memberID(rng.Intn(members))
			if rng.Intn(3) == 0 {
				points := []string{"post-prepare", "mid-commit", "pre-delete", "post-delete"}
				ev.MigPoint = points[rng.Intn(len(points))]
				if v := rng.Intn(members + 1); v == 0 {
					ev.Victim = "balancer"
				} else {
					ev.Victim = memberID(v - 1)
				}
			}
		case roll < 545: // planned drain
			ev.Kind = EvDrainMember
			ev.Member = memberID(rng.Intn(members))
		case roll < 550: // rolling restart
			ev.Kind = EvRollingRestart
		case roll < 610: // remove
			if len(apps) == 0 {
				ev.Kind = EvStep
				break
			}
			ev.Kind = EvRemove
			ev.App = apps[rng.Intn(len(apps))]
		case roll < 650: // resubmit race
			if len(apps) == 0 {
				ev.Kind = EvStep
				break
			}
			s := newSubmit(apps[rng.Intn(len(apps))])
			s.Kind = EvResubmit
			s.AdvanceMs = ev.AdvanceMs
			ev = s
		case roll < 770: // node fault from the failure trace
			mi := rng.Intn(members)
			if hour < hours-1 {
				hour++
			}
			wantDown := make(map[int]bool)
			for _, n := range trace.DownNodes(hour, mi, nodeIDs) {
				wantDown[int(n)] = true
			}
			ev.Kind = EvNodeFault
			ev.Member = memberID(mi)
			for n := 0; n < nodes; n++ {
				switch {
				case wantDown[n] && !down[mi][n]:
					if rng.Intn(5) == 0 {
						ev.Drain = append(ev.Drain, n)
					} else {
						ev.Fail = append(ev.Fail, n)
					}
				case !wantDown[n] && down[mi][n]:
					ev.Recover = append(ev.Recover, n)
				}
			}
			down[mi] = wantDown
		case roll < 820: // slow (always intermittent: every >= 2)
			ev.Kind = EvSlow
			ev.Member = memberID(rng.Intn(members))
			ev.DelayMs = 40
			ev.Every = 2 + rng.Intn(3)
		case roll < 850: // slow tail (ack dropped after serving)
			ev.Kind = EvSlowTail
			ev.Member = memberID(rng.Intn(members))
			ev.DelayMs = 40
			ev.Every = 2 + rng.Intn(3)
		case roll < 890: // partition
			ev.Kind = EvPartition
			ev.Member = memberID(rng.Intn(members))
		case roll < 950: // heal
			ev.Kind = EvHeal
			ev.Member = memberID(rng.Intn(members))
		case roll < 975: // crash (half clean, half torn-WAL)
			mi := rng.Intn(members)
			if crashed[mi] {
				ev.Kind = EvRestart
				ev.Member = memberID(mi)
				crashed[mi] = false
				break
			}
			ev.Kind = EvCrash
			ev.Member = memberID(mi)
			if rng.Intn(2) == 1 {
				ev.KillIn = 1 + rng.Intn(8)
			}
			crashed[mi] = true
		default: // restart
			var downM []int
			for i := 0; i < members; i++ {
				if crashed[i] {
					downM = append(downM, i)
				}
			}
			if len(downM) == 0 {
				ev.Kind = EvStep
				break
			}
			mi := downM[rng.Intn(len(downM))]
			ev.Kind = EvRestart
			ev.Member = memberID(mi)
			crashed[mi] = false
		}
		out = append(out, ev)
	}

	if cfg.Inject {
		at := 2 * len(out) / 3
		inj := Event{Kind: EvInject, AdvanceMs: 25}
		out = append(out[:at:at], append([]Event{inj}, out[at:]...)...)
	}
	return out
}
