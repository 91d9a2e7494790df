package experiments

import (
	"fmt"
	"path/filepath"
	"time"

	"medea/internal/chaos"
	"medea/internal/cluster"
	"medea/internal/core"
	"medea/internal/journal"
	"medea/internal/lra"
	"medea/internal/metrics"
	"medea/internal/sim"
	"medea/internal/workload"
)

// schedBox holds the current scheduler incarnation. Everything scheduled
// on the sim engine (ticks, chaos transitions, submissions) goes through
// the box, so after a crash the recovered instance slots in and the
// already-queued events keep working against it — the simulated
// equivalent of a restarted scheduler process re-attaching to a running
// cluster.
type schedBox struct{ m *core.Medea }

func (b *schedBox) FailNode(n cluster.NodeID, now time.Time) []cluster.Eviction {
	return b.m.FailNode(n, now)
}

func (b *schedBox) RecoverNode(n cluster.NodeID, now time.Time) bool {
	return b.m.RecoverNode(n, now)
}

// sync makes what the scheduler staged durable before the simulation
// moves on, as a serving layer does before it answers.
func (b *schedBox) sync() {
	if err := b.m.Sync(); err != nil {
		panic(fmt.Sprintf("experiments: journal sync: %v", err))
	}
}

// RunCrashRestart demonstrates durable scheduler state end to end: a
// journaled Medea schedules LRAs under random node churn, is crashed
// mid-flight at the CrashAt-th durability operation (write-ahead record
// or checkpoint), recovered from the journal against the still-running
// cluster, and resumed. The table compares the crashed-and-recovered run
// with a never-crashed reference of the same seed: the recovery columns
// (records replayed, containers adopted, zombies re-queued, orphans
// released, recovery wall time) quantify the restart, and the final
// deployed/repaired counts show the crash cost no application state.
func RunCrashRestart(o Options) *metrics.Table {
	o = o.withDefaults()
	nodes := o.scaled(60, 12)
	numLRAs := o.scaled(30, 10)
	containersPerLRA := o.scaled(8, 4)
	crashAt := o.CrashAt
	if crashAt == 0 {
		crashAt = 100
	}

	tab := metrics.NewTable("Crash-restart: journaled recovery under node churn",
		"variant", "crashes", "replayed", "adopted", "zombies", "orphans", "recovery",
		"deployed", "evicted", "repaired", "invariants")

	for _, variant := range []struct {
		name   string
		killAt int
	}{
		{"reference (no crash)", 0},
		{fmt.Sprintf("crash at op %d", crashAt), crashAt},
	} {
		var base journal.Journal
		if o.JournalDir == "" {
			base = journal.NewMemory()
		} else {
			f, err := journal.OpenDir(filepath.Join(o.JournalDir, sanitize(variant.name)))
			if err != nil {
				panic(fmt.Sprintf("experiments: opening journal: %v", err))
			}
			defer f.Close()
			base = f
		}
		cj := &chaos.CrashJournal{Journal: base, KillAt: variant.killAt}

		c := cluster.Grid(nodes, nodes/4, SimNodeCapacity)
		cfg := core.Config{Interval: time.Second, Audit: o.Audit}
		box := &schedBox{m: core.New(c, lra.NewNodeCandidates(), cfg)}
		eng := sim.NewEngine(sim.Epoch)
		crashes := 0
		attached := func() (ok bool) {
			defer func() {
				if r := recover(); r != nil {
					if !chaos.IsCrash(r) {
						panic(r)
					}
					ok = false
				}
			}()
			if err := box.m.AttachJournal(cj, eng.Now()); err != nil {
				panic(fmt.Sprintf("experiments: attaching journal: %v", err))
			}
			return true
		}()
		if !attached { // -crash-at 1: died writing the initial checkpoint
			crashes++
			rec, err := core.Recover(base, c, lra.NewNodeCandidates(), cfg, eng.Now())
			if err != nil {
				panic(fmt.Sprintf("experiments: recovery failed: %v", err))
			}
			box.m = rec
		}

		// LRAs arrive over the first minute; churn runs for two more.
		for i := 0; i < numLRAs; i++ {
			app := workload.ResilienceApp(fmt.Sprintf("cr-%02d", i), containersPerLRA)
			at := eng.Now().Add(time.Duration(i) * 2 * time.Second)
			eng.At(at, func(now time.Time) {
				if err := box.m.SubmitLRA(app, now); err != nil {
					panic(fmt.Sprintf("experiments: submit %s: %v", app.ID, err))
				}
				box.sync() // the submitter is told the LRA was accepted
			})
		}
		horizon := eng.Now().Add(3 * time.Minute)
		end := horizon.Add(time.Minute) // drain window for the last repairs
		nodeIDs := make([]cluster.NodeID, nodes/3)
		for i := range nodeIDs {
			nodeIDs[i] = cluster.NodeID(i)
		}
		if _, err := chaos.Inject(eng, box, nodeIDs, chaos.Profile{
			MTBF: 45 * time.Second, MTTR: 10 * time.Second, Seed: o.Seed,
		}, horizon); err != nil {
			panic(err) // unreachable: profile is positive
		}
		armTicks := func() {
			eng.Every(eng.Now(), time.Second, func(now time.Time) bool {
				box.m.Tick(now)
				box.sync()
				return now.Before(end)
			})
		}
		armTicks()

		// Run to completion, surviving the injected crash: the panic kills
		// the "process" (scheduler state and its tick series), the cluster
		// and journal survive, and Recover rebuilds the scheduler from
		// them. The recovered instance re-enters through the box.
		var recovery metrics.RecoveryStats
		for {
			finished := func() (ok bool) {
				defer func() {
					if r := recover(); r != nil {
						if !chaos.IsCrash(r) {
							panic(r)
						}
						ok = false
					}
				}()
				eng.Run(0)
				return true
			}()
			if finished {
				break
			}
			crashes++
			rec, err := core.Recover(base, c, lra.NewNodeCandidates(), cfg, eng.Now())
			if err != nil {
				panic(fmt.Sprintf("experiments: recovery failed: %v", err))
			}
			// Carry the pre-crash eviction/repair history forward for the
			// report (a real deployment would aggregate across incarnations).
			rec.Recovery.Evictions += box.m.Recovery.Evictions
			rec.Recovery.RepairsPlaced += box.m.Recovery.RepairsPlaced
			recovery = rec.Recovery
			box.m = rec
			armTicks()
		}

		inv := "ok"
		if err := box.m.CheckInvariants(); err != nil {
			inv = err.Error()
		}
		r := &box.m.Recovery
		if crashes == 0 {
			recovery = *r
		}
		tab.AddRow(variant.name, crashes,
			recovery.JournalReplayed, recovery.ContainersAdopted,
			recovery.ZombiesRequeued, recovery.OrphansReleased,
			recovery.RecoveryWallTime.Round(time.Microsecond),
			box.m.DeployedLRAs(), r.Evictions, r.RepairsPlaced, inv)
	}
	return tab
}

// sanitize maps a variant name to a filesystem-friendly directory name.
func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r == ' ':
			out = append(out, '-')
		}
	}
	return string(out)
}
