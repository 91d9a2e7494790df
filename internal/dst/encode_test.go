package dst

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
	records *int
}

func (m marshalTap) Append(r *journal.Record) error {
	if err := m.Memory.Append(r); err != nil {
		return err
	}
	*m.records++
	want, werr := json.Marshal(r)
	got, gerr := journal.AppendRecord(nil, r)
	if werr != nil || gerr != nil || !bytes.Equal(got, want) {
		m.t.Errorf("record %d (%s): AppendRecord wrote\n %s (%v)\njson.Marshal writes\n %s (%v)", r.Seq, r.Kind, got, gerr, want, werr)
	}
	return nil
}

// TestRecordsEncodeLikeMarshal holds every record the members of DST
// seeds 1-10 append, through crashes, restarts and migrations, to
// json.Marshal's bytes. The tap goes under each member's crash wrapper
// before the first event; the fleet has appended nothing yet.
func TestRecordsEncodeLikeMarshal(t *testing.T) {
	records := 0
	for seed := int64(1); seed <= 10; seed++ {
		cfg := Config{Seed: seed, Events: 300}
		h, err := newHarness(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for id, cj := range h.cjs {
			if lag := h.mems[id].Lag(); lag != 0 {
				t.Fatalf("seed %d %s: %d records appended before the tap", seed, id, lag)
			}
			cj.Journal = marshalTap{Memory: h.mems[id], t: t, records: &records}
		}
		res := h.run(Generate(cfg))
		h.fleet.Close()
		if res.Violation != nil {
			t.Fatalf("seed %d: %v", seed, res.Violation)
		}
	}
	if records < 1000 {
		t.Fatalf("seeds 1-10 appended %d records, want at least 1000", records)
	}
	t.Logf("%d records", records)
}
