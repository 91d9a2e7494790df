package core

import (
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/journal"
	"medea/internal/lra"
	"medea/internal/resource"
)

// TestSubmitRejectsPendingDuplicate: a second submission of an ID that is
// already pending must be refused — a silent second copy would register
// its constraints twice and, once both place, overwrite the deployment
// map and orphan the first copy's containers.
func TestSubmitRejectsPendingDuplicate(t *testing.T) {
	m := newMedea(lra.NewSerial(), Config{})
	con, err := constraint.Parse("{hb, {hb, 0, 1}, node}")
	if err != nil {
		t.Fatal(err)
	}
	a := app("dup", 1, "hb")
	a.Constraints = []constraint.Constraint{con}
	if err := m.SubmitLRA(a, t0); err != nil {
		t.Fatal(err)
	}
	b := app("dup", 1, "hb")
	b.Constraints = []constraint.Constraint{con}
	if err := m.SubmitLRA(b, t0.Add(time.Second)); err == nil {
		t.Fatal("duplicate pending app accepted")
	}
	if got := m.PendingLRAs(); got != 1 {
		t.Fatalf("pending = %d, want 1", got)
	}
	if got := appConstraints(m.Constraints, "dup"); got != 1 {
		t.Fatalf("registered constraints = %d, want 1 (no double registration)", got)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants after duplicate rejection: %v", err)
	}
}

// TestWithdrawPendingLRA: a queued app can be withdrawn before any cycle
// places it; the withdrawal unregisters its constraints and frees the ID
// for resubmission. Unknown and deployed IDs are not withdrawable.
func TestWithdrawPendingLRA(t *testing.T) {
	m := newMedea(lra.NewSerial(), Config{})
	con, err := constraint.Parse("{hb, {hb, 0, 1}, node}")
	if err != nil {
		t.Fatal(err)
	}
	w := app("w", 2, "hb")
	w.Constraints = []constraint.Constraint{con}
	if err := m.SubmitLRA(w, t0); err != nil {
		t.Fatal(err)
	}
	if !m.WithdrawLRA("w", t0.Add(time.Second)) {
		t.Fatal("withdraw of pending app failed")
	}
	if got := m.PendingLRAs(); got != 0 {
		t.Fatalf("pending = %d after withdraw", got)
	}
	if got := appConstraints(m.Constraints, "w"); got != 0 {
		t.Fatalf("constraints survive withdraw: %d entries", got)
	}
	if m.WithdrawLRA("w", t0) {
		t.Fatal("second withdraw of the same app succeeded")
	}
	if m.WithdrawLRA("ghost", t0) {
		t.Fatal("withdraw of unknown app succeeded")
	}
	// Deployed apps go through RemoveLRA, not withdraw.
	if err := m.SubmitLRA(app("d", 1), t0); err != nil {
		t.Fatal(err)
	}
	m.RunCycle(t0.Add(time.Second))
	if m.WithdrawLRA("d", t0.Add(2*time.Second)) {
		t.Fatal("withdraw of deployed app succeeded")
	}
	// The withdrawn ID is resubmittable.
	if err := m.SubmitLRA(app("w", 2, "hb"), t0.Add(3*time.Second)); err != nil {
		t.Fatalf("resubmit after withdraw: %v", err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

// TestWithdrawSurvivesRecovery: the withdrawal is journaled, so a crash
// after the withdraw must not resurrect the pending app on replay.
func TestWithdrawSurvivesRecovery(t *testing.T) {
	c := cluster.Grid(8, 4, resource.New(16384, 8))
	m := New(c, lra.NewSerial(), Config{})
	j := journal.NewMemory()
	if err := m.AttachJournal(j, t0); err != nil {
		t.Fatal(err)
	}
	if err := m.SubmitLRA(app("keep", 1, "hb"), t0); err != nil {
		t.Fatal(err)
	}
	if err := m.SubmitLRA(app("drop", 1, "hb"), t0); err != nil {
		t.Fatal(err)
	}
	if !m.WithdrawLRA("drop", t0.Add(time.Second)) {
		t.Fatal("withdraw failed")
	}

	r, err := Recover(j, c, lra.NewSerial(), Config{}, t0.Add(2*time.Second))
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := r.PendingApps(); len(got) != 1 || got[0] != "keep" {
		t.Fatalf("recovered pending = %v, want [keep]", got)
	}
	if got := appConstraints(r.Constraints, "drop"); got != 0 {
		t.Fatalf("withdrawn app's constraints recovered: %d entries", got)
	}
}

// appConstraints counts the constraints m holds for appID.
func appConstraints(m *constraint.Manager, appID string) int {
	n := 0
	for _, e := range m.Active() {
		if e.AppID == appID {
			n++
		}
	}
	return n
}
