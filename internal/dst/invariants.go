package dst

import (
	"fmt"
	"sort"
	"strings"

	"medea/internal/core"
	"medea/internal/federation"
	"medea/internal/lra"
)

// check runs the cross-layer invariants after one event. strict is the
// settle-phase standard: transient states the run tolerates (an app
// momentarily Lost while anti-entropy catches up, a duplicate still
// covered by an ambiguous mark) are no longer acceptable once every
// fault is healed and the fleet has quiesced.
func (h *harness) check(event int, strict bool) *Violation {
	if v := h.checkAckedAccounted(event); v != nil {
		return v
	}
	if v := h.checkAudit(event, strict); v != nil {
		return v
	}
	if v := h.checkCopies(event, strict); v != nil {
		return v
	}
	if v := h.checkCapacity(event); v != nil {
		return v
	}
	if v := h.checkCores(event); v != nil {
		return v
	}
	if v := h.checkSlowNeverDead(event); v != nil {
		return v
	}
	return nil
}

// checkAckedAccounted: every submission a client got a 2xx for — and has
// not successfully removed — must still be accounted for by the
// federation ledger. This fires immediately when the ledger drops an
// acknowledged app (the Inject hole), because the balancer never
// garbage-collects an entry that was acked and not removed.
func (h *harness) checkAckedAccounted(event int) *Violation {
	var ids []string
	for id := range h.acked {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if _, ok := h.fleet.Balancer.Home(id); !ok {
			return &Violation{
				Name:   VioAckedLost,
				Event:  event,
				Detail: fmt.Sprintf("%s was acknowledged (2xx) and never removed, but the ledger no longer tracks it", id),
			}
		}
	}
	return nil
}

// checkAudit runs the balancer's own fleet-wide audit. During the run an
// app may report Lost transiently — its home crashed before the queued
// submission became durable, and the anti-entropy sweep has not reached
// it yet — so only a persistent streak is a violation. At settle the
// tolerance is zero.
func (h *harness) checkAudit(event int, strict bool) *Violation {
	rep := h.fleet.Balancer.Audit(h.now)
	if strict && len(rep.Lost) > 0 {
		return &Violation{
			Name:   VioAuditLost,
			Event:  event,
			Detail: fmt.Sprintf("after settle the audit still reports lost: %s", strings.Join(rep.Lost, ", ")),
		}
	}
	cur := make(map[string]bool, len(rep.Lost))
	for _, id := range rep.Lost {
		// A migrating app must never look lost: the protocol holds the
		// source copy until the destination copy is deployed, and the
		// audit knows both ends. Lost mid-migration means the two-phase
		// bookkeeping dropped a copy it should have been tracking.
		if src, dest, ok := h.fleet.Balancer.MigrationOf(id); ok {
			return &Violation{
				Name:   VioMigration,
				Event:  event,
				Detail: fmt.Sprintf("%s reported lost while migrating %s -> %s", id, src, dest),
			}
		}
		cur[id] = true
		if _, ok := h.lostSince[id]; !ok {
			h.lostSince[id] = h.round
		}
		if h.round-h.lostSince[id] > maxLostRounds {
			return &Violation{
				Name:   VioAuditLost,
				Event:  event,
				Detail: fmt.Sprintf("%s reported lost for %d consecutive federation rounds; anti-entropy should have re-queued it", id, h.round-h.lostSince[id]),
			}
		}
	}
	for id := range h.lostSince {
		if !cur[id] {
			delete(h.lostSince, id)
		}
	}
	if event >= 0 && (event+1)%shadowEvery == 0 {
		h.tracef("    audit: routed=%d placed=%d degraded=%d ondead=%d rejected=%d reconciling=%d lost=%d",
			rep.Routed, rep.Placed, rep.Degraded, rep.OnDead, rep.Rejected, rep.Reconciling, len(rep.Lost))
	}
	return nil
}

// checkCopies: no app runs on two members, and no member runs an app the
// ledger does not know. A copy beside the ledger's home is tolerated
// only while an ambiguous mark on exactly that member explains it — the
// reconciler's to-do entry. Crashed members are skipped: their in-memory
// core is mid-crash garbage; their truth is the journal, and the restart
// path re-checks it.
func (h *harness) checkCopies(event int, strict bool) *Violation {
	held := make(map[string][]string)
	for _, m := range h.fleet.Members {
		if h.crashed[m.ID] {
			continue
		}
		for _, app := range m.Med.DeployedApps() {
			held[app] = append(held[app], m.ID)
		}
		for _, app := range m.Med.PendingApps() {
			held[app] = append(held[app], m.ID)
		}
	}
	var apps []string
	for app := range held {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	for _, app := range apps {
		holders := held[app]
		home, ok := h.fleet.Balancer.Home(app)
		if !ok {
			return &Violation{
				Name:   VioUntracked,
				Event:  event,
				Detail: fmt.Sprintf("%s is live on %s but the ledger has no entry for it", app, strings.Join(holders, ", ")),
			}
		}
		marks := make(map[string]bool)
		for _, id := range h.fleet.Balancer.AmbiguousMarks(app) {
			marks[id] = true
		}
		// Mid-migration the app legitimately exists on both protocol ends:
		// the source until DELETE, the destination from COMMIT on.
		migSrc, migDest, migrating := h.fleet.Balancer.MigrationOf(app)
		for _, holder := range holders {
			if holder == home || marks[holder] {
				continue
			}
			if migrating && (holder == migSrc || holder == migDest) {
				continue
			}
			return &Violation{
				Name:  VioDuplicate,
				Event: event,
				Detail: fmt.Sprintf("%s is live on %s while homed on %q with no ambiguous mark for %s",
					app, holder, home, holder),
			}
		}
		if strict && len(holders) > 1 {
			return &Violation{
				Name:   VioDuplicate,
				Event:  event,
				Detail: fmt.Sprintf("after settle %s is still live on %d members: %s", app, len(holders), strings.Join(holders, ", ")),
			}
		}
	}
	return nil
}

// checkCapacity: no node ever holds allocations beyond its capacity, and
// each cluster's container/usage books balance. Checked for crashed
// members too — their nodes keep running and keep accounting.
func (h *harness) checkCapacity(event int) *Violation {
	for _, m := range h.fleet.Members {
		cl := m.Med.Cluster
		if err := cl.CheckAccounting(); err != nil {
			return &Violation{
				Name:   VioCapacity,
				Event:  event,
				Detail: fmt.Sprintf("%s: %v", m.ID, err),
			}
		}
		for _, n := range cl.Nodes() {
			if !n.Used().Fits(n.Capacity) {
				return &Violation{
					Name:   VioCapacity,
					Event:  event,
					Detail: fmt.Sprintf("%s node %d: used %v exceeds capacity %v", m.ID, n.ID, n.Used(), n.Capacity),
				}
			}
		}
	}
	return nil
}

// checkCores: every live member's core passes its own invariant sweep.
func (h *harness) checkCores(event int) *Violation {
	for _, m := range h.fleet.Members {
		if h.crashed[m.ID] {
			continue
		}
		if err := m.Med.CheckInvariants(); err != nil {
			return &Violation{
				Name:   VioCoreInvariant,
				Event:  event,
				Detail: fmt.Sprintf("%s: %v", m.ID, err),
			}
		}
	}
	return nil
}

// checkSlowNeverDead is the phi-accrual contract stated from the probe's
// point of view: a Dead verdict is only legitimate after at least
// minSilentRounds federation rounds without a successful probe. A
// successful probe is the only thing that advances the scout's
// LastReport.At, so the checker watches that timestamp — this stays
// sound even though the fault gate's every-Nth counters are shared with
// balancer and checker traffic (a member can genuinely miss consecutive
// probes while "only slow"; then death is correct). What must NEVER
// happen: the detector confirming dead a member that heartbeat within
// the confirm window, or holding a latched verdict past a heartbeat.
func (h *harness) checkSlowNeverDead(event int) *Violation {
	for _, m := range h.fleet.Members {
		rep, ok := h.fleet.Scout.LastReport(m.ID)
		if ok && !rep.At.Equal(h.prevReportAt[m.ID]) {
			h.prevReportAt[m.ID] = rep.At
			h.lastOKRound[m.ID] = h.round
		}
		if h.fleet.Scout.State(m.ID, h.now) != federation.Dead {
			continue
		}
		if silent := h.round - h.lastOKRound[m.ID]; silent < minSilentRounds {
			return &Violation{
				Name:  VioSlowDead,
				Event: event,
				Detail: fmt.Sprintf("%s confirmed dead only %d round(s) after a successful probe; death requires %d rounds of probe silence",
					m.ID, silent, minSilentRounds),
			}
		}
	}
	return nil
}

// shadowCheck recovers a clone of every live member's journal against a
// clone of its cluster and diffs the rebuilt scheduler against the live
// one: if a crash happened right now, would recovery tell the same
// story? Divergence means the write-ahead discipline has a hole.
func (h *harness) shadowCheck(event int) *Violation {
	for _, m := range h.fleet.Members {
		if h.crashed[m.ID] {
			continue
		}
		rec, err := core.Recover(h.mems[m.ID].Clone(), m.Med.Cluster.Clone(), lra.NewNodeCandidates(), h.coreCfg, h.now)
		if err != nil {
			return &Violation{
				Name:   VioShadowRecovery,
				Event:  event,
				Detail: fmt.Sprintf("%s: recovering journal clone: %v", m.ID, err),
			}
		}
		if d := diffBookkeeping(bookkeeping(m.Med), bookkeeping(rec)); d != "" {
			return &Violation{Name: VioShadowRecovery, Event: event, Detail: m.ID + ": " + d}
		}
	}
	return nil
}

// bookkeeping renders the scheduler state a recovery has to rebuild, one
// line per fact in a fixed order: each deployed LRA with its live
// container IDs in placement order, each pending LRA with its consumed
// retries, each degraded LRA with its lost pieces and consumed repair
// attempts.
func bookkeeping(m *core.Medea) []string {
	var out []string
	for _, app := range m.DeployedApps() {
		ids, _ := m.Deployed(app)
		out = append(out, fmt.Sprintf("deployed %s %v", app, ids))
	}
	pending := m.PendingApps()
	sort.Strings(pending)
	for _, app := range pending {
		retries, _ := m.PendingRetries(app)
		out = append(out, fmt.Sprintf("pending %s retries=%d", app, retries))
	}
	pieces := m.PendingRepairPieces()
	degraded := make([]string, 0, len(pieces))
	for app := range pieces {
		degraded = append(degraded, app)
	}
	sort.Strings(degraded)
	for _, app := range degraded {
		attempts, _ := m.RepairBudget(app)
		out = append(out, fmt.Sprintf("repair %s %v attempts=%d", app, pieces[app], attempts))
	}
	return out
}

// diffBookkeeping returns "" when the two renderings agree and the first
// line on which they differ otherwise.
func diffBookkeeping(live, recovered []string) string {
	for i := 0; i < len(live) || i < len(recovered); i++ {
		l, r := "(nothing)", "(nothing)"
		if i < len(live) {
			l = live[i]
		}
		if i < len(recovered) {
			r = recovered[i]
		}
		if l != r {
			return fmt.Sprintf("live has %q, recovered has %q", l, r)
		}
	}
	return ""
}
