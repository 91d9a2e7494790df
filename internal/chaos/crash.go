package chaos

import "medea/internal/journal"

// Crash-point injection for the durable-scheduler work: where the rest of
// this package kills nodes under a live scheduler, CrashJournal kills the
// scheduler itself. It wraps a journal and panics with a private sentinel
// immediately BEFORE the KillAt-th durability operation reaches the
// backend, modeling a process crash at the worst possible instant: the
// state transition is underway but its record is NOT durable. Driving a
// scripted run once per possible kill point and recovering each time
// proves the write-ahead discipline covers every window.

// crashNow is the sentinel panic value of an injected crash.
type crashNow struct{ op int }

// IsCrash reports whether a recovered panic value is an injected crash.
func IsCrash(r any) bool {
	_, ok := r.(crashNow)
	return ok
}

// CrashJournal stages appends the way the file journal does and hands
// them to the wrapped journal only at a barrier or a checkpoint, so the
// wrapped journal holds exactly what a real kill would leave durable. A
// record's Seq is assigned when it reaches the wrapped journal.
//
// It counts durability operations — appends, barriers with something
// staged, and checkpoints — and injects a crash before the KillAt-th one;
// the crash loses every staged record. KillAt 0 never crashes, which
// turns the wrapper into a pure op counter for sizing the kill matrix.
type CrashJournal struct {
	journal.Journal
	KillAt int // 1-based op index to die before; 0 = never

	Ops         int // durability operations observed
	Checkpoints int // how many of them were checkpoints

	staged []*journal.Record
	seq    int64  // the last Seq the wrapped journal assigned
	sizing []byte // UntilCheckpoint's reused encoding buffer
}

func (c *CrashJournal) maybeCrash() {
	c.Ops++
	if c.KillAt > 0 && c.Ops == c.KillAt {
		c.staged = nil
		panic(crashNow{op: c.Ops})
	}
}

// handOver passes the staged records to the wrapped journal, in order.
func (c *CrashJournal) handOver() error {
	for _, r := range c.staged {
		if err := c.Journal.Append(r); err != nil {
			return err
		}
		c.seq = r.Seq
	}
	c.staged = c.staged[:0]
	return nil
}

// Append crashes at the kill point, else stages the record.
func (c *CrashJournal) Append(r *journal.Record) error {
	c.maybeCrash()
	c.staged = append(c.staged, r)
	return nil
}

// Barrier crashes at the kill point, else hands what is staged to the
// wrapped journal and makes it durable there. With nothing staged it is
// not a durability operation.
func (c *CrashJournal) Barrier() error {
	if len(c.staged) == 0 {
		return c.Journal.Barrier()
	}
	c.maybeCrash()
	if err := c.handOver(); err != nil {
		return err
	}
	return c.Journal.Barrier()
}

// WriteCheckpoint crashes at the kill point, else hands what is staged
// to the wrapped journal and checkpoints it, which covers them.
func (c *CrashJournal) WriteCheckpoint(cp *journal.Checkpoint) error {
	c.maybeCrash()
	c.Checkpoints++
	if err := c.handOver(); err != nil {
		return err
	}
	err := c.Journal.WriteCheckpoint(cp)
	c.seq = cp.Seq
	return err
}

// UntilCheckpoint implements journal.Journal the way journal.File
// counts: the wrapped journal's answer less the records staged here,
// encoded by journal.AppendRecord with the Seq the wrapped journal will
// give them. A record that does not encode is skipped: its hand-over
// fails instead.
func (c *CrashJournal) UntilCheckpoint() int {
	n := c.Journal.UntilCheckpoint()
	for i, r := range c.staged {
		sized := *r
		sized.Seq = c.seq + int64(i) + 1
		if b, err := journal.AppendRecord(c.sizing[:0], &sized); err == nil {
			c.sizing = b
			n -= len(b)
		}
	}
	return n
}

// Lag implements journal.Lagger the way journal.File counts: the wrapped
// journal's lag plus the records staged here, which a checkpoint would
// also cover.
func (c *CrashJournal) Lag() int {
	n := len(c.staged)
	if lg, ok := c.Journal.(journal.Lagger); ok {
		n += lg.Lag()
	}
	return n
}

// Load is what a restarted process reads: whatever is still staged died
// with the process that staged it.
func (c *CrashJournal) Load() (*journal.Checkpoint, []*journal.Record, error) {
	c.staged = nil
	return c.Journal.Load()
}

// Close hands over what is staged, as a clean shutdown would, and closes
// the wrapped journal.
func (c *CrashJournal) Close() error {
	err := c.handOver()
	if cerr := c.Journal.Close(); err == nil {
		err = cerr
	}
	return err
}
