package journal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// appendRaw appends raw bytes to the WAL file, simulating the partial
// write a crash mid-write leaves behind.
func appendRaw(t *testing.T, dir, raw string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("opening wal for raw append: %v", err)
	}
	if _, err := f.WriteString(raw); err != nil {
		t.Fatalf("raw append: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("closing wal: %v", err)
	}
}

// TestTornFinalWALLine: a crash mid-write truncates the last record to
// partial JSON. Recovery must skip it (it was never acknowledged) and
// keep every intact record, and the reopened journal must accept new
// appends on a clean line.
func TestTornFinalWALLine(t *testing.T) {
	for _, torn := range []string{
		`{"seq":7,"kind":"requ`,          // truncated mid-payload
		`{"seq":7,"kind":"requeue","at"`, // truncated mid-field
		`{"seq":7}x`,                     // trailing garbage
		`{"seq":7,"kind":"requeue","at":"1970-01-01T01:23:20Z","appID":"a"}`, // complete payload, missing newline
	} {
		t.Run(torn[:10]+"...", func(t *testing.T) {
			dir := t.TempDir()
			j, err := OpenDir(dir)
			if err != nil {
				t.Fatalf("OpenDir: %v", err)
			}
			want := sampleRecords()
			for _, r := range want {
				if err := j.Append(r); err != nil {
					t.Fatalf("Append: %v", err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			appendRaw(t, dir, torn)

			j2, err := OpenDir(dir)
			if err != nil {
				t.Fatalf("OpenDir after torn tail: %v", err)
			}
			if !j2.RecoveredTornTail() {
				t.Fatalf("RecoveredTornTail = false, want true")
			}
			cp, recs, err := j2.Load()
			if err != nil {
				t.Fatalf("Load after torn tail: %v", err)
			}
			if cp != nil {
				t.Fatalf("unexpected checkpoint %+v", cp)
			}
			checkTail(t, recs, want)
			if got := j2.Lag(); got != len(want) {
				t.Fatalf("Lag = %d, want %d", got, len(want))
			}

			// The reopened journal must append on a clean line: the torn
			// bytes are gone, the new record is intact, and Seq continues
			// after the last acknowledged record.
			extra := &Record{Kind: KindReject, At: t0, AppID: "b"}
			if err := j2.Append(extra); err != nil {
				t.Fatalf("Append after torn tail: %v", err)
			}
			if extra.Seq != want[len(want)-1].Seq+1 {
				t.Fatalf("post-recovery Seq = %d, want %d", extra.Seq, want[len(want)-1].Seq+1)
			}
			if err := j2.Barrier(); err != nil {
				t.Fatalf("Barrier after torn tail: %v", err)
			}
			_, recs, err = j2.Load()
			if err != nil {
				t.Fatalf("Load after post-recovery append: %v", err)
			}
			checkTail(t, recs, append(append([]*Record(nil), want...), extra))
			if err := j2.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
		})
	}
}

// TestTerminatedCorruptFinalLineFails: a final WAL line that carries its
// newline terminator was fully written, so it was likely acknowledged.
// If it fails to decode, that is at-rest corruption of acknowledged
// state, and recovery must fail loudly instead of silently dropping the
// record as a torn tail.
func TestTerminatedCorruptFinalLineFails(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	for _, r := range sampleRecords() {
		if err := j.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	appendRaw(t, dir, "{\"seq\":7,\"kind\":\"requ\n")
	if _, err := OpenDir(dir); err == nil {
		t.Fatal("OpenDir accepted a terminated undecodable final line, want error")
	}
}

// TestTornMidWALLineStillFails: corruption that is NOT a torn tail (a
// mangled record with intact records after it) must fail recovery loudly
// rather than silently dropping acknowledged state.
func TestTornMidWALLineStillFails(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	for _, r := range sampleRecords() {
		if err := j.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Mangle a record in the middle of the file.
	path := filepath.Join(dir, walName)
	content, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading wal: %v", err)
	}
	lines := strings.SplitAfter(string(content), "\n")
	lines[2] = lines[2][:len(lines[2])/2] + "\n"
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatalf("writing mangled wal: %v", err)
	}
	if _, err := OpenDir(dir); err == nil {
		t.Fatalf("OpenDir accepted mid-file corruption, want error")
	}
}

// TestLagTracksCheckpointCadence: Lag counts the replay tail and resets
// on checkpoint, including across a reopen.
func TestLagTracksCheckpointCadence(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	recs := sampleRecords()
	for i, r := range recs[:4] {
		if err := j.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if got := j.Lag(); got != i+1 {
			t.Fatalf("Lag after %d appends = %d", i+1, got)
		}
	}
	if err := j.WriteCheckpoint(&Checkpoint{At: t0}); err != nil {
		t.Fatalf("WriteCheckpoint: %v", err)
	}
	if got := j.Lag(); got != 0 {
		t.Fatalf("Lag after checkpoint = %d, want 0", got)
	}
	for _, r := range recs[4:] {
		if err := j.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j2, err := OpenDir(dir)
	if err != nil {
		t.Fatalf("OpenDir: %v", err)
	}
	if got := j2.Lag(); got != len(recs)-4 {
		t.Fatalf("Lag after reopen = %d, want %d", got, len(recs)-4)
	}
	if err := j2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	m := NewMemory()
	for i, r := range sampleRecords() {
		if err := m.Append(r); err != nil {
			t.Fatalf("memory Append: %v", err)
		}
		if got := m.Lag(); got != i+1 {
			t.Fatalf("memory Lag = %d, want %d", got, i+1)
		}
	}
	if err := m.WriteCheckpoint(&Checkpoint{At: t0}); err != nil {
		t.Fatalf("memory WriteCheckpoint: %v", err)
	}
	if got := m.Lag(); got != 0 {
		t.Fatalf("memory Lag after checkpoint = %d, want 0", got)
	}
}
