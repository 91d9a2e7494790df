package journal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// AppendRecord / decodeRecord and the checkpoint pair are the single
// codec both backends share, so a state that cannot round-trip through
// the file backend fails in the in-memory one too.
func decodeRecord(b []byte) (*Record, error) {
	var r Record
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("journal: decoding record: %w", err)
	}
	return &r, nil
}

func encodeCheckpoint(c *Checkpoint) ([]byte, error) {
	b, err := json.Marshal(c)
	if err != nil {
		return nil, fmt.Errorf("journal: encoding checkpoint at seq %d: %w", c.Seq, err)
	}
	return b, nil
}

func decodeCheckpoint(b []byte) (*Checkpoint, error) {
	var c Checkpoint
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("journal: decoding checkpoint: %w", err)
	}
	return &c, nil
}

const (
	walName        = "wal.log"
	checkpointName = "checkpoint.json"
)

// File is the file-backed journal: a directory holding a line-JSON
// write-ahead log (wal.log) and the latest checkpoint (checkpoint.json,
// replaced atomically via rename). Appends stage encoded lines in memory;
// a barrier writes them to the log in one write and one fsync. The log is
// truncated after a checkpoint lands; if the process dies between the two
// steps, Load filters the stale prefix by Seq, so a torn
// checkpoint+truncate pair never loses or duplicates records.
type File struct {
	dir string
	wal *os.File
	// staged holds the newline-terminated records appended since the last
	// barrier, in Seq order.
	staged []byte
	seq    int64
	// syncs counts fsyncs issued (barriers and checkpoints), for tests and
	// diagnostics.
	syncs int64
	// lag and tailBytes count the records appended since the last
	// checkpoint (the WAL tail a recovery would replay) and their encoded
	// length; checkpointBytes is the last checkpoint's encoded length.
	// All three are resumed from disk on OpenDir.
	lag                        int
	tailBytes, checkpointBytes int
	// tornWAL records that the last open (or load) found and dropped a
	// truncated partial record at the end of the WAL — the signature of a
	// crash mid-write.
	tornWAL bool
}

// OpenDir opens (or creates) a file-backed journal in dir. An existing
// journal is resumed: the sequence counter continues after the highest
// Seq on disk. A torn final WAL line (a crash mid-write leaves truncated
// partial JSON) is truncated away before the log is reopened for append,
// so the next record starts on a clean line.
func OpenDir(dir string) (*File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: creating dir: %w", err)
	}
	f := &File{dir: dir}
	cp, recs, d, err := f.load()
	if err != nil {
		return nil, err
	}
	if cp != nil {
		f.seq = cp.Seq
	}
	if n := len(recs); n > 0 && recs[n-1].Seq > f.seq {
		f.seq = recs[n-1].Seq
	}
	f.lag = len(recs)
	f.tailBytes, f.checkpointBytes = d.tailBytes, d.checkpointBytes
	if d.torn {
		f.tornWAL = true
		fmt.Fprintf(os.Stderr, "journal: warning: dropping torn partial record at end of %s (crash mid-write); truncating to %d bytes\n",
			filepath.Join(dir, walName), d.validEnd)
		if err := os.Truncate(filepath.Join(dir, walName), d.validEnd); err != nil {
			return nil, fmt.Errorf("journal: truncating torn wal tail: %w", err)
		}
	}
	wal, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: opening wal: %w", err)
	}
	f.wal = wal
	return f, nil
}

// Dir returns the journal directory.
func (f *File) Dir() string { return f.dir }

// Lag implements Lagger: the number of WAL records since the last
// checkpoint.
func (f *File) Lag() int { return f.lag }

// UntilCheckpoint implements Journal.
func (f *File) UntilCheckpoint() int { return untilCheckpoint(f.tailBytes, f.checkpointBytes) }

// RecoveredTornTail reports whether the journal dropped a truncated
// partial record at the end of the WAL when it was opened or loaded.
func (f *File) RecoveredTornTail() bool { return f.tornWAL }

// Syncs returns the number of fsyncs issued since open (barriers plus
// checkpoints).
func (f *File) Syncs() int64 { return f.syncs }

// Append implements Journal: the record is encoded straight into the
// staging buffer. It reaches the log only at the next Barrier, checkpoint
// or Close.
func (f *File) Append(r *Record) error {
	if f.wal == nil {
		return fmt.Errorf("journal: append on closed journal")
	}
	f.seq++
	r.Seq = f.seq
	b, err := AppendRecord(f.staged, r)
	if err != nil {
		f.seq--
		return err
	}
	f.tailBytes += len(b) - len(f.staged)
	f.staged = append(b, '\n')
	f.lag++
	return nil
}

// Barrier implements Journal: everything staged goes to the log in one
// write and is fsynced, so it survives a process crash, a kernel crash
// and power loss. With nothing staged it issues no fsync.
func (f *File) Barrier() error {
	if f.wal == nil {
		return fmt.Errorf("journal: barrier on closed journal")
	}
	if len(f.staged) == 0 {
		return nil
	}
	if _, err := f.wal.Write(f.staged); err != nil {
		return fmt.Errorf("journal: writing staged records up to %d: %w", f.seq, err)
	}
	if err := f.wal.Sync(); err != nil {
		return fmt.Errorf("journal: syncing records up to %d: %w", f.seq, err)
	}
	f.syncs++
	f.staged = f.staged[:0]
	return nil
}

// WriteCheckpoint implements Journal: the checkpoint is written to a
// temporary file and renamed over checkpoint.json, then the WAL is
// truncated. The checkpoint covers the log and the staged records, so
// the staged ones are dropped unwritten.
func (f *File) WriteCheckpoint(c *Checkpoint) error {
	if f.wal == nil {
		return fmt.Errorf("journal: checkpoint on closed journal")
	}
	c.Seq = f.seq
	b, err := encodeCheckpoint(c)
	if err != nil {
		return err
	}
	// The tmp file is fsynced before the rename: renaming an unsynced
	// file can publish an empty checkpoint after a kernel crash.
	tmp := filepath.Join(f.dir, checkpointName+".tmp")
	tf, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: writing checkpoint: %w", err)
	}
	if _, err := tf.Write(b); err != nil {
		tf.Close()
		return fmt.Errorf("journal: writing checkpoint: %w", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return fmt.Errorf("journal: syncing checkpoint: %w", err)
	}
	if err := tf.Close(); err != nil {
		return fmt.Errorf("journal: writing checkpoint: %w", err)
	}
	f.syncs++
	if err := os.Rename(tmp, filepath.Join(f.dir, checkpointName)); err != nil {
		return fmt.Errorf("journal: publishing checkpoint: %w", err)
	}
	f.staged = f.staged[:0]
	// Rotate the WAL. A crash before this point leaves a stale prefix
	// that Load drops by Seq.
	if err := f.wal.Close(); err != nil {
		return fmt.Errorf("journal: rotating wal: %w", err)
	}
	wal, err := os.OpenFile(filepath.Join(f.dir, walName), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: rotating wal: %w", err)
	}
	f.wal = wal
	f.lag = 0
	f.tailBytes, f.checkpointBytes = 0, len(b)
	return nil
}

// Load implements Journal, reading the on-disk state: the latest
// checkpoint (if any) and the WAL records newer than it, in Seq order.
// Staged records are not on disk and are not returned. An unterminated
// final WAL line — the signature of a crash mid-barrier — is skipped
// with a warning rather than failing the whole recovery; its barrier
// never returned, so dropping it is the correct replay. Any
// newline-terminated line that fails to decode (including the final
// one) is at-rest corruption and fails recovery loudly.
func (f *File) Load() (*Checkpoint, []*Record, error) {
	cp, recs, d, err := f.load()
	if d.torn {
		f.tornWAL = true
		fmt.Fprintf(os.Stderr, "journal: warning: ignoring torn partial record at end of %s (crash mid-write)\n",
			filepath.Join(f.dir, walName))
	}
	return cp, recs, err
}

// diskState is what load learns besides the content: the offset where
// the intact WAL lines end (for truncating a torn tail), whether a torn
// line follows, and the encoded sizes of the records after the
// checkpoint and of the checkpoint.
type diskState struct {
	validEnd                   int64
	torn                       bool
	tailBytes, checkpointBytes int
}

// load reads the on-disk state.
func (f *File) load() (cp *Checkpoint, recs []*Record, d diskState, err error) {
	if b, err := os.ReadFile(filepath.Join(f.dir, checkpointName)); err == nil {
		cp, err = decodeCheckpoint(b)
		if err != nil {
			return nil, nil, d, err
		}
		d.checkpointBytes = len(b)
	} else if !os.IsNotExist(err) {
		return nil, nil, d, fmt.Errorf("journal: reading checkpoint: %w", err)
	}
	content, err := os.ReadFile(filepath.Join(f.dir, walName))
	if err != nil {
		if os.IsNotExist(err) {
			return cp, nil, d, nil
		}
		return nil, nil, d, fmt.Errorf("journal: opening wal: %w", err)
	}
	offset := 0
	for offset < len(content) {
		var line []byte
		next := offset
		terminated := false
		if nl := bytes.IndexByte(content[offset:], '\n'); nl >= 0 {
			line, next, terminated = content[offset:offset+nl], offset+nl+1, true
		} else {
			line, next = content[offset:], len(content)
		}
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 {
			offset = next
			d.validEnd = int64(next)
			continue
		}
		if !terminated {
			// Non-empty final line without its newline terminator: a
			// barrier died mid-write, so whether or not the payload
			// happens to parse, the barrier never returned — drop it as a
			// torn tail. The whole lines before it are a prefix of that
			// barrier's records, which replays like a crash between two
			// appends: none of them had announced a mutation yet.
			d.torn = true
			return cp, recs, d, nil
		}
		r, derr := decodeRecord(trimmed)
		if derr != nil {
			// A newline-terminated line was fully written, so the record
			// was likely acknowledged. Undecodable terminated lines (final
			// or not) are at-rest corruption: fail recovery loudly rather
			// than silently dropping acknowledged state.
			return nil, nil, d, derr
		}
		if cp == nil || r.Seq > cp.Seq {
			recs = append(recs, r)
			d.tailBytes += len(trimmed)
		}
		offset = next
		d.validEnd = int64(next)
	}
	return cp, recs, d, nil
}

// Close implements Journal: what is staged is barriered first.
func (f *File) Close() error {
	if f.wal == nil {
		return nil
	}
	err := f.Barrier()
	if cerr := f.wal.Close(); err == nil {
		err = cerr
	}
	f.wal = nil
	return err
}
