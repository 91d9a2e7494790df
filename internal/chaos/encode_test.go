package chaos

import (
	"bytes"
	"encoding/json"
	"testing"

	"medea/internal/journal"
)

// marshalTap is a memory journal that holds every record it accepts, once
// the journal has given it its Seq, to json.Marshal: journal.AppendRecord
// must write the same bytes.
type marshalTap struct {
	*journal.Memory
	t       testing.TB
	records int
}

func (m *marshalTap) Append(r *journal.Record) error {
	if err := m.Memory.Append(r); err != nil {
		return err
	}
	m.records++
	want, werr := json.Marshal(r)
	got, gerr := journal.AppendRecord(nil, r)
	if werr != nil || gerr != nil || !bytes.Equal(got, want) {
		m.t.Errorf("record %d (%s): AppendRecord wrote\n %s (%v)\njson.Marshal writes\n %s (%v)", r.Seq, r.Kind, got, gerr, want, werr)
	}
	return nil
}

// TestCrashMatrixRecordsEncodeLikeMarshal holds every record the
// crash-point matrix's reference run appends to json.Marshal's bytes.
func TestCrashMatrixRecordsEncodeLikeMarshal(t *testing.T) {
	tap := &marshalTap{Memory: journal.NewMemory(), t: t}
	if _, _, err := crashHarness().Reference(tap); err != nil {
		t.Fatal(err)
	}
	if tap.records < 100 {
		t.Fatalf("the reference run appended %d records, want at least 100", tap.records)
	}
	t.Logf("%d records", tap.records)
}
