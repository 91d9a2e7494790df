package core

import (
	"time"

	"medea/internal/cluster"
	"medea/internal/journal"
	"medea/internal/lra"
)

// Scheduler bookkeeping: the pending queue, the deployments with their
// container ownership, the repair queue and the constraint registry that
// follows them. Every change to it is one of the transitions below, and a
// transition touches nothing else — not the cluster, not the journal, not
// the metrics. The live path calls a transition beside the journal record
// that announces it; replayRecord, reconcile and restoreCheckpoint call
// the same function with the record's fields, so a recovered scheduler
// agrees with the one that wrote the journal by construction.

// pendingApp is one entry of a cycle's batch: an LRA awaiting its first
// placement or, when repair is set, a deployed LRA's lost containers
// awaiting repair. The kinds differ in these fields, not in their path.
type pendingApp struct {
	app     *lra.Application // for a repair, the deployed LRA's
	submit  time.Time        // for a repair, its degradation window's first eviction
	retries int              // consumed retries
	repair  *repairFields
}

// repairFields are what a repair entry adds: the lost containers (never
// empty while queued), whose replacements keep their IDs, and the backoff
// gate of the next attempt.
type repairFields struct {
	lost      []journal.DeployedContainer
	notBefore time.Time
}

// deployment is the live state of one placed LRA. What core remembers
// about each container (group, demand, effective tags incl. the appID
// tag) is what lets it request an equivalent replacement after an
// eviction.
type deployment struct {
	app        *lra.Application
	containers map[cluster.ContainerID]journal.DeployedContainer
	order      []cluster.ContainerID // placement order, for Deployed
	// degradedSince is the wall-clock start of the current degradation
	// window (zero when the LRA is at full strength).
	degradedSince time.Time
}

// enqueue registers an LRA's constraints and appends it to the pending
// queue with the given consumed retry budget.
func (m *Medea) enqueue(app *lra.Application, submit time.Time, retries int) error {
	if err := m.Constraints.AddApplication(app.ID, app.Constraints...); err != nil {
		return err
	}
	m.pending = append(m.pending, &pendingApp{app: app, submit: submit, retries: retries})
	return nil
}

// requeue puts an in-flight entry back in line with the given consumed
// budget: a new LRA at the back of the pending queue, a repair in the
// repair queue it never left, gated at repairBackoffFor's pure schedule
// from at if the cycle consumed an attempt.
func (m *Medea) requeue(pa *pendingApp, retries int, at time.Time) {
	if pa.repair == nil {
		m.pending = append(m.pending, pa)
	} else if retries > pa.retries {
		pa.repair.notBefore = at.Add(m.cfg.repairBackoffFor(pa.app.ID, retries))
	}
	pa.retries = retries
}

// reject gives an in-flight entry up: a new LRA for good, a repair by
// abandon, whose result it returns.
func (m *Medea) reject(pa *pendingApp) (since time.Time) {
	if pa.repair != nil {
		return m.abandon(pa.app.ID)
	}
	m.Constraints.RemoveApplication(pa.app.ID)
	m.Rejected = append(m.Rejected, pa.app.ID)
	return time.Time{}
}

// commit turns an entry's committed placement into deployed state: a
// new LRA's by deploy, a repair's by restore, whose results it returns.
func (m *Medea) commit(pa *pendingApp, placed []lra.Assignment) (restored int, healedSince time.Time) {
	if pa.repair == nil {
		m.deploy(pa.app, placed)
		return 0, time.Time{}
	}
	ids := make([]cluster.ContainerID, len(placed))
	for i, a := range placed {
		ids[i] = a.Container
	}
	return m.restore(pa.app.ID, ids)
}

// adopt makes c a live container of dep, last in placement order.
func (m *Medea) adopt(dep *deployment, c journal.DeployedContainer) {
	dep.containers[c.ID] = c
	dep.order = append(dep.order, c.ID)
	m.owner[c.ID] = dep.app.ID
}

// deploy turns a committed placement into a deployment.
func (m *Medea) deploy(app *lra.Application, placed []lra.Assignment) {
	dep := &deployment{
		app:        app,
		containers: make(map[cluster.ContainerID]journal.DeployedContainer, len(placed)),
	}
	for _, a := range placed {
		m.adopt(dep, journal.DeployedContainer{ID: a.Container, Group: a.Group, Demand: a.Demand, Tags: a.Tags})
	}
	m.deployed[app.ID] = dep
}

// lose takes a container the cluster no longer runs away from its LRA and
// queues it as a repair piece; the first loss opens the LRA's degradation
// window and its repair at the given time. It reports false for
// a container no LRA owns (a task container).
func (m *Medea) lose(id cluster.ContainerID, at time.Time) bool {
	appID, owned := m.owner[id]
	if !owned {
		return false
	}
	dep := m.deployed[appID]
	c := dep.containers[id]
	delete(dep.containers, id)
	delete(m.owner, id)
	for i, o := range dep.order {
		if o == id {
			dep.order = append(dep.order[:i], dep.order[i+1:]...)
			break
		}
	}
	if dep.degradedSince.IsZero() {
		dep.degradedSince = at
	}
	r := m.repairs[appID]
	if r == nil {
		r = &pendingApp{app: dep.app, submit: at, repair: &repairFields{notBefore: at}}
		m.repairs[appID] = r
	}
	r.repair.lost = append(r.repair.lost, c)
	return true
}

// restore moves the lost pieces of appID with the given container IDs
// back into its deployment; pieces not named stay queued with their
// attempt budget, and the repair goes once none remain. It
// returns the number of pieces restored and, when that brought the LRA
// back to full strength, the start of the degradation window it closed.
func (m *Medea) restore(appID string, ids []cluster.ContainerID) (restored int, healedSince time.Time) {
	r, dep := m.repairs[appID], m.deployed[appID]
	if r == nil || dep == nil {
		delete(m.repairs, appID) // LRA removed while degraded
		return 0, time.Time{}
	}
	lost := make(map[cluster.ContainerID]journal.DeployedContainer, len(r.repair.lost))
	for _, c := range r.repair.lost {
		lost[c.ID] = c
	}
	for _, id := range ids {
		if c, ok := lost[id]; ok {
			m.adopt(dep, c)
			delete(lost, id)
			restored++
		}
	}
	remaining := r.repair.lost[:0]
	for _, c := range r.repair.lost {
		if _, still := lost[c.ID]; still {
			remaining = append(remaining, c)
		}
	}
	r.repair.lost = remaining
	if len(remaining) > 0 {
		return restored, time.Time{}
	}
	delete(m.repairs, appID)
	if len(dep.containers) == dep.app.NumContainers() {
		healedSince, dep.degradedSince = dep.degradedSince, time.Time{}
	}
	return restored, healedSince
}

// abandon gives up on repairing appID: the repair goes, the LRA stays
// degraded and its degradation window is closed. It returns the start of
// that window.
func (m *Medea) abandon(appID string) (since time.Time) {
	delete(m.repairs, appID)
	if dep := m.deployed[appID]; dep != nil {
		since, dep.degradedSince = dep.degradedSince, time.Time{}
	}
	return since
}

// forget drops everything the scheduler knows about appID — deployment,
// pending entry, repair, constraints — and returns the containers
// it owned, in placement order, for the caller to release.
func (m *Medea) forget(appID string) []cluster.ContainerID {
	var owned []cluster.ContainerID
	if dep := m.deployed[appID]; dep != nil {
		owned = dep.order
		for _, id := range owned {
			delete(m.owner, id)
		}
		delete(m.deployed, appID)
	}
	for i, pa := range m.pending {
		if pa.app.ID == appID {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			break
		}
	}
	delete(m.repairs, appID)
	m.Constraints.RemoveApplication(appID)
	return owned
}

// clearBackoffs pulls every repair backoff gate in to at: capacity just
// returned, so every degraded LRA is repair-eligible at the next cycle.
func (m *Medea) clearBackoffs(at time.Time) {
	for _, r := range m.repairs {
		if r.repair.notBefore.After(at) {
			r.repair.notBefore = at
		}
	}
}
