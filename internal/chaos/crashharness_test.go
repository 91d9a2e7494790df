package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"medea/internal/cluster"
	"medea/internal/core"
	"medea/internal/journal"
	"medea/internal/lra"
	"medea/internal/resource"
)

// The scripted crash harness lives in a test-only file: it drives
// core.Medea, and the chaos library itself must stay importable from
// core's own tests (Byzantine), so the library half (CrashJournal) is
// core-free and the core-coupled half rides with the tests.

// OpKind names one scripted scheduler operation.
type OpKind int

const (
	OpSubmit OpKind = iota
	OpTick
	OpFail
	OpRecover
	OpRemove
)

// Op is one step of a crash-test script. Ops carry virtual-time offsets
// so a crashed run can resume the script exactly where it died.
type Op struct {
	Kind       OpKind
	At         time.Duration  // offset from the script's base time
	App        string         // OpSubmit, OpRemove
	Containers int            // OpSubmit
	Node       cluster.NodeID // OpFail, OpRecover
	Tags       []string       // OpSubmit
}

// Harness drives a deterministic scheduler script under crash injection.
// Every run builds a fresh cluster and scheduler, so reference and
// crashed runs share nothing but the script.
type Harness struct {
	Script []Op
	Base   time.Time
	Config core.Config

	Nodes   int
	NodeCap resource.Vector
	Demand  resource.Vector // per scripted container
}

// newRun builds a fresh cluster + scheduler pair for one execution.
func (h *Harness) newRun() *core.Medea {
	c := cluster.Grid(h.Nodes, 4, h.NodeCap)
	return core.New(c, lra.NewSerial(), h.Config)
}

// apply executes one scripted op against the scheduler and then syncs
// its journal, as a serving layer does before it answers: an op the
// script moved past is durable, one a crash interrupted may not be.
func (h *Harness) apply(m *core.Medea, op Op) error {
	if err := h.applyOp(m, op); err != nil {
		return err
	}
	return m.Sync()
}

func (h *Harness) applyOp(m *core.Medea, op Op) error {
	now := h.Base.Add(op.At)
	switch op.Kind {
	case OpSubmit:
		app := &lra.Application{ID: op.App, Groups: []lra.ContainerGroup{{
			Name: "w", Count: op.Containers, Demand: h.Demand,
		}}}
		return m.SubmitLRA(app, now)
	case OpTick:
		m.Tick(now)
	case OpFail:
		m.FailNode(op.Node, now)
	case OpRecover:
		m.RecoverNode(op.Node, now)
	case OpRemove:
		// A remove racing a crash may find the app already gone after
		// recovery rolled the teardown forward; that is the converged
		// outcome, not an error.
		if err := m.RemoveLRA(op.App); err != nil && !strings.Contains(err.Error(), "not deployed") {
			return err
		}
	default:
		return fmt.Errorf("chaos: unknown op kind %d", op.Kind)
	}
	return nil
}

// Reference drives the full script with no crash against the given
// journal backend and returns the finished scheduler plus the wrapper
// that counted its durability operations: cj.Ops is the size of the kill
// matrix, cj.Checkpoints how many of them were checkpoints.
func (h *Harness) Reference(base journal.Journal) (*core.Medea, *CrashJournal, error) {
	m := h.newRun()
	cj := &CrashJournal{Journal: base}
	if err := m.AttachJournal(cj, h.Base); err != nil {
		return nil, nil, err
	}
	for i, op := range h.Script {
		if err := h.apply(m, op); err != nil {
			return nil, nil, fmt.Errorf("chaos: reference op %d: %w", i, err)
		}
	}
	return m, cj, nil
}

// RunWithCrash drives the script, crashing the scheduler before its
// killAt-th durability operation, then recovers from the surviving
// journal against the surviving cluster and re-drives the remainder of
// the script on the recovered instance. The bool reports whether the
// crash actually fired (false means killAt exceeded the run's op count
// and the run finished untouched).
func (h *Harness) RunWithCrash(base journal.Journal, killAt int) (*core.Medea, bool, error) {
	m := h.newRun()
	cj := &CrashJournal{Journal: base, KillAt: killAt}

	crashed := false
	attach := func() error {
		defer func() {
			if r := recover(); r != nil {
				if !IsCrash(r) {
					panic(r)
				}
				crashed = true
			}
		}()
		return m.AttachJournal(cj, h.Base)
	}
	if err := attach(); err != nil {
		return nil, false, err
	}

	crashedAt := -1 // op index the crash interrupted; -1 = during attach
	step := func(i int) error {
		defer func() {
			if r := recover(); r != nil {
				if !IsCrash(r) {
					panic(r)
				}
				crashed = true
			}
		}()
		return h.apply(m, h.Script[i])
	}
	resume := 0
	if !crashed { // the attach-time checkpoint survived
		for i := range h.Script {
			if err := step(i); err != nil {
				return nil, false, fmt.Errorf("chaos: op %d: %w", i, err)
			}
			if crashed {
				crashedAt = i
				resume = i // re-drive the interrupted op itself
				break
			}
		}
	}
	if !crashed {
		return m, false, nil // killAt beyond the run's horizon
	}

	// The process is dead; the cluster and the UNWRAPPED journal survive.
	// Recovery time is the virtual time of the interrupted op.
	now := h.Base
	if crashedAt >= 0 {
		now = h.Base.Add(h.Script[crashedAt].At)
	}
	r, err := core.Recover(base, m.Cluster, lra.NewSerial(), h.Config, now)
	if err != nil {
		return nil, true, fmt.Errorf("chaos: recover after op %d: %w", crashedAt, err)
	}
	for i := resume; i < len(h.Script); i++ {
		if err := h.apply(r, h.Script[i]); err != nil {
			return nil, true, fmt.Errorf("chaos: resumed op %d: %w", i, err)
		}
	}
	return r, true, nil
}

// Fingerprint summarises the semantically durable state of a scheduler:
// which LRAs are deployed with which container identities, what is
// pending, rejected or awaiting repair, and which apps the constraint
// registry knows. Node assignments, timestamps and metrics are excluded
// on purpose — a crash may legally shift WHERE a repair lands and WHEN,
// but never WHAT is running.
func Fingerprint(m *core.Medea) string {
	var b strings.Builder
	for _, appID := range m.DeployedApps() {
		ids, _ := m.Deployed(appID)
		sorted := make([]string, len(ids))
		for i, id := range ids {
			sorted[i] = string(id)
		}
		sort.Strings(sorted)
		fmt.Fprintf(&b, "deployed %s: %s\n", appID, strings.Join(sorted, ","))
	}
	pending := m.PendingApps()
	sort.Strings(pending)
	fmt.Fprintf(&b, "pending: %s\n", strings.Join(pending, ","))
	rejected := append([]string(nil), m.Rejected...)
	sort.Strings(rejected)
	fmt.Fprintf(&b, "rejected: %s\n", strings.Join(rejected, ","))
	repairs := m.PendingRepairPieces()
	repairApps := make([]string, 0, len(repairs))
	for appID := range repairs {
		repairApps = append(repairApps, appID)
	}
	sort.Strings(repairApps)
	for _, appID := range repairApps {
		ids := make([]string, len(repairs[appID]))
		for i, id := range repairs[appID] {
			ids[i] = string(id)
		}
		fmt.Fprintf(&b, "repair %s: %s\n", appID, strings.Join(ids, ","))
	}
	fmt.Fprintf(&b, "constraints: %s\n", strings.Join(m.Constraints.Apps(), ","))
	return b.String()
}

// CheckNoLeaks verifies cluster-level conservation: every container the
// cluster runs is owned by a deployed LRA (the script places no tasks),
// so a double-allocation or a leaked release shows up as a count
// mismatch.
func CheckNoLeaks(m *core.Medea) error {
	owned := 0
	for _, appID := range m.DeployedApps() {
		ids, _ := m.Deployed(appID)
		for _, id := range ids {
			if _, ok := m.Cluster.ContainerNode(id); !ok {
				return fmt.Errorf("chaos: deployed container %s not in cluster", id)
			}
		}
		owned += len(ids)
	}
	if got := m.Cluster.NumContainers(); got != owned {
		return fmt.Errorf("chaos: cluster runs %d containers, deployments own %d", got, owned)
	}
	return nil
}
