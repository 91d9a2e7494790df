package journal

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/lra"
	"medea/internal/resource"
)

var t0 = time.Unix(5000, 0).UTC()

func sampleApp(id string) *lra.Application {
	return &lra.Application{
		ID: id,
		Groups: []lra.ContainerGroup{
			{Name: "worker", Count: 2, Demand: resource.New(2048, 1), Tags: []constraint.Tag{"svc"}},
		},
		Constraints: []constraint.Constraint{
			constraint.New(constraint.AntiAffinity(
				constraint.Expr{"svc"}, constraint.Expr{"svc"}, constraint.Node)),
		},
	}
}

func sampleRecords() []*Record {
	return []*Record{
		{Kind: KindSubmit, At: t0, App: sampleApp("a"), AppID: "a"},
		{Kind: KindBeginBatch, At: t0, Cycle: 1, NextRun: t0.Add(10 * time.Second), Batch: []string{"a"}},
		{Kind: KindPlace, At: t0, AppID: "a", Assignments: []lra.Assignment{
			{Container: "a#0", Group: "worker", Node: 0, Demand: resource.New(2048, 1), Tags: []constraint.Tag{"svc", "app:a"}},
		}},
		{Kind: KindCommitBatch, At: t0, Cycle: 1, Breaker: &BreakerState{State: "closed"}},
		{Kind: KindEvict, At: t0.Add(time.Second), Evictions: []cluster.Eviction{
			{Container: "a#0", Node: 0, Demand: resource.New(2048, 1), Tags: []constraint.Tag{"svc", "app:a"}},
		}},
		{Kind: KindRepairFail, At: t0.Add(2 * time.Second), AppID: "a", Attempts: 1, NotBefore: t0.Add(12 * time.Second)},
	}
}

func checkTail(t *testing.T, got []*Record, want []*Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("loaded %d records, want %d", len(got), len(want))
	}
	for i, r := range got {
		w := want[i]
		if r.Kind != w.Kind || r.AppID != w.AppID || !r.At.Equal(w.At) {
			t.Errorf("record %d: got {%s %s %v}, want {%s %s %v}", i, r.Kind, r.AppID, r.At, w.Kind, w.AppID, w.At)
		}
		if r.Seq == 0 {
			t.Errorf("record %d: Seq not assigned", i)
		}
	}
}

// Both backends must behave identically; run the suite over each.
func backends(t *testing.T) map[string]func() Journal {
	return map[string]func() Journal{
		"memory": func() Journal { return NewMemory() },
		"file": func() Journal {
			j, err := OpenDir(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return j
		},
	}
}

func TestAppendLoadRoundTrip(t *testing.T) {
	for name, open := range backends(t) {
		t.Run(name, func(t *testing.T) {
			j := open()
			defer j.Close()
			want := sampleRecords()
			for _, r := range want {
				if err := j.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Barrier(); err != nil {
				t.Fatal(err)
			}
			cp, got, err := j.Load()
			if err != nil {
				t.Fatal(err)
			}
			if cp != nil {
				t.Fatalf("unexpected checkpoint before any was written: %+v", cp)
			}
			checkTail(t, got, want)
			// Payload fidelity on the richest record.
			if app := got[0].App; app == nil || app.ID != "a" || len(app.Groups) != 1 || len(app.Constraints) != 1 {
				t.Errorf("submit record lost application payload: %+v", got[0].App)
			}
			if a := got[2].Assignments; len(a) != 1 || a[0].Container != "a#0" || a[0].Demand != resource.New(2048, 1) {
				t.Errorf("place record lost assignments: %+v", got[2].Assignments)
			}
		})
	}
}

func TestCheckpointCoversTail(t *testing.T) {
	for name, open := range backends(t) {
		t.Run(name, func(t *testing.T) {
			j := open()
			defer j.Close()
			recs := sampleRecords()
			for _, r := range recs[:4] {
				if err := j.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.WriteCheckpoint(&Checkpoint{At: t0, Cycles: 1}); err != nil {
				t.Fatal(err)
			}
			for _, r := range recs[4:] {
				if err := j.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Barrier(); err != nil {
				t.Fatal(err)
			}
			cp, tail, err := j.Load()
			if err != nil {
				t.Fatal(err)
			}
			if cp == nil || cp.Seq != 4 || cp.Cycles != 1 {
				t.Fatalf("checkpoint not restored: %+v", cp)
			}
			checkTail(t, tail, recs[4:])
			if tail[0].Seq != 5 {
				t.Errorf("tail starts at seq %d, want 5", tail[0].Seq)
			}
		})
	}
}

// TestCheckpointDueBySize: a checkpoint is not due right after one is
// written, and is due exactly once the records appended since encode to
// checkpointFactor times its encoded size. The answer is the same after
// the file backend is reopened and in every prefix clone of the
// in-memory one.
func TestCheckpointDueBySize(t *testing.T) {
	dir := t.TempDir()
	file, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for name, j := range map[string]Journal{"memory": NewMemory(), "file": file} {
		t.Run(name, func(t *testing.T) {
			cp := &Checkpoint{At: t0, Cycles: 7, Rejected: []string{"x", "y"}}
			if err := j.WriteCheckpoint(cp); err != nil {
				t.Fatal(err)
			}
			b, err := encodeCheckpoint(cp)
			if err != nil {
				t.Fatal(err)
			}
			limit := checkpointFactor * len(b)
			// until[k] is the answer after k appends.
			until := []int{j.UntilCheckpoint()}
			if until[0] != limit {
				t.Fatalf("right after a %d-byte checkpoint: %d bytes until the next, want %d", len(b), until[0], limit)
			}
			appended := 0
			for i := 0; appended < limit; i++ {
				r := sampleRecords()[i%6]
				if err := j.Append(r); err != nil {
					t.Fatal(err)
				}
				rb, err := AppendRecord(nil, r)
				if err != nil {
					t.Fatal(err)
				}
				appended += len(rb)
				until = append(until, j.UntilCheckpoint())
				if got := until[len(until)-1]; got != limit-appended {
					t.Fatalf("after %d appends (%d bytes): %d bytes until a checkpoint, want %d", i+1, appended, got, limit-appended)
				}
			}
			if until[len(until)-2] <= 0 || until[len(until)-1] > 0 {
				t.Fatalf("due before the tail reached %d bytes, or not once it did: %v", limit, until)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			switch j := j.(type) {
			case *Memory:
				for k, want := range until {
					if got := j.ClonePrefix(k).UntilCheckpoint(); got != want {
						t.Fatalf("ClonePrefix(%d): %d bytes until a checkpoint, want %d", k, got, want)
					}
				}
			case *File:
				re, err := OpenDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				if got, want := re.UntilCheckpoint(), until[len(until)-1]; got != want {
					t.Fatalf("reopened: %d bytes until a checkpoint, want %d", got, want)
				}
			}
		})
	}
}

// TestRetiredCheckpointKeyLoads: checkpoints written before the
// "taskSeq" and "repairSeq" fields and the cluster snapshot's derived
// keys (containers, memoryUtilization; per node usedMB, freeMB,
// usedCores, containers, available) were retired still load from both
// backends; the unknown keys are ignored, the fields that remain are
// restored, and the cluster rebuilt from the snapshot is the one it
// describes.
func TestRetiredCheckpointKeyLoads(t *testing.T) {
	const old = `{"seq":3,"at":"1970-01-01T01:23:20Z","cycles":2,"repairSeq":1,"taskSeq":7,"nextRun":"1970-01-01T01:23:30Z",` +
		`"cluster":{"nodes":[` +
		`{"name":"n0","capacityMB":4096,"capacityCores":4,"usedMB":1024,"freeMB":3072,"usedCores":1,"containers":1,"available":true,"state":"up"},` +
		`{"name":"n1","capacityMB":4096,"capacityCores":4,"usedMB":512,"freeMB":0,"usedCores":1,"containers":1,"available":false,"state":"draining"}],` +
		`"containers":2,"memoryUtilization":0.1875,"groups":{"rack":[["n0","n1"]]},` +
		`"allocations":[{"id":"a#0","node":"n0","memoryMB":1024,"vcores":1,"tags":["svc"]},{"id":"b#0","node":"n1","memoryMB":512,"vcores":1,"tags":["db"]}]}}`
	want := cluster.New()
	for _, name := range []string{"n0", "n1"} {
		want.AddNode(name, resource.New(4096, 4))
	}
	if err := want.RegisterGroup(constraint.Rack, [][]cluster.NodeID{{0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := want.Allocate(0, "a#0", resource.New(1024, 1), []constraint.Tag{"svc"}); err != nil {
		t.Fatal(err)
	}
	if err := want.Allocate(1, "b#0", resource.New(512, 1), []constraint.Tag{"db"}); err != nil {
		t.Fatal(err)
	}
	want.DrainNode(1)

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, checkpointName), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for name, j := range map[string]Journal{"memory": &Memory{seq: 3, checkpoint: []byte(old)}, "file": f} {
		cp, tail, err := j.Load()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cp == nil || cp.Seq != 3 || cp.Cycles != 2 || !cp.At.Equal(t0) || !cp.NextRun.Equal(t0.Add(10*time.Second)) {
			t.Errorf("%s: checkpoint = %+v", name, cp)
		}
		if len(tail) != 0 {
			t.Errorf("%s: tail = %d records, want 0", name, len(tail))
		}
		if cp == nil || cp.Cluster == nil {
			t.Fatalf("%s: checkpoint lost its cluster snapshot", name)
		}
		got, err := cluster.FromSnapshot(cp.Cluster)
		if err != nil {
			t.Fatalf("%s: FromSnapshot: %v", name, err)
		}
		if d := got.Diff(want); d != "" {
			t.Errorf("%s: restored cluster differs from the one described: %s", name, d)
		}
	}
}

func TestFileReopenContinuesSeq(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sampleRecords()[:3] {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	r := &Record{Kind: KindReject, AppID: "b", At: t0}
	if err := j2.Append(r); err != nil {
		t.Fatal(err)
	}
	if r.Seq != 4 {
		t.Fatalf("reopened journal assigned seq %d, want 4", r.Seq)
	}
	if err := j2.Barrier(); err != nil {
		t.Fatal(err)
	}
	_, tail, err := j2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) != 4 {
		t.Fatalf("reopened journal lost records: %d, want 4", len(tail))
	}
}

// A crash between publishing a checkpoint and rotating the WAL leaves
// covered records in the log; Load must drop them by Seq instead of
// replaying them twice.
func TestFileStaleWALPrefixFiltered(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs := sampleRecords()
	for _, r := range recs[:4] {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the torn rotation: publish a checkpoint covering seq 4
	// while the WAL still holds seqs 1-4.
	b, err := encodeCheckpoint(&Checkpoint{Seq: 4, At: t0, Cycles: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, checkpointName), b, 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	cp, tail, err := j2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if cp == nil || cp.Seq != 4 {
		t.Fatalf("checkpoint not loaded: %+v", cp)
	}
	if len(tail) != 0 {
		t.Fatalf("stale WAL prefix replayed: %d records", len(tail))
	}
	// New appends continue after the checkpoint.
	r := &Record{Kind: KindRemove, AppID: "a", At: t0}
	if err := j2.Append(r); err != nil {
		t.Fatal(err)
	}
	if r.Seq != 5 {
		t.Fatalf("append after torn rotation assigned seq %d, want 5", r.Seq)
	}
}

func TestClosedJournalRejectsWrites(t *testing.T) {
	for name, open := range backends(t) {
		t.Run(name, func(t *testing.T) {
			j := open()
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if err := j.Append(&Record{Kind: KindSubmit}); err == nil {
				t.Error("append on closed journal succeeded")
			}
			if err := j.WriteCheckpoint(&Checkpoint{}); err == nil {
				t.Error("checkpoint on closed journal succeeded")
			}
		})
	}
}

// TestBarrierOneFsync pins the file backend's durability contract: k
// appends cost no fsync, one barrier makes all k durable with exactly one,
// a barrier with nothing staged issues none, and a second handle sees
// exactly the records up to the last barrier.
func TestBarrierOneFsync(t *testing.T) {
	const k = 10
	dir := t.TempDir()
	j, err := OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	durable := func(want int) {
		t.Helper()
		other := &File{dir: dir}
		if _, recs, err := other.Load(); err != nil || len(recs) != want {
			t.Fatalf("second handle saw %d records (err %v), want %d", len(recs), err, want)
		}
	}
	appendK := func() {
		t.Helper()
		for i := 0; i < k; i++ {
			if err := j.Append(&Record{Kind: KindSubmit, At: t0, AppID: "a"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	barrier := func(wantSyncs int64) {
		t.Helper()
		if err := j.Barrier(); err != nil {
			t.Fatal(err)
		}
		if got := j.Syncs(); got != wantSyncs {
			t.Fatalf("%d syncs, want %d", got, wantSyncs)
		}
	}

	appendK()
	if got := j.Syncs(); got != 0 {
		t.Fatalf("after %d appends: %d syncs, want 0", k, got)
	}
	durable(0)
	barrier(1)
	durable(k)
	barrier(1) // nothing staged: no fsync
	appendK()
	durable(k)
	barrier(2)
	durable(2 * k)

	// A checkpoint is a barrier: it covers the staged records and issues
	// its own one fsync, not one for them as well.
	appendK()
	if err := j.WriteCheckpoint(&Checkpoint{At: t0}); err != nil {
		t.Fatal(err)
	}
	if got := j.Syncs(); got != 3 {
		t.Fatalf("after checkpoint: %d syncs, want 3", got)
	}
	other := &File{dir: dir}
	if cp, recs, err := other.Load(); err != nil || cp == nil || cp.Seq != 3*k || len(recs) != 0 {
		t.Fatalf("after checkpoint a second handle saw checkpoint %+v and %d records (err %v), want seq %d and none", cp, len(recs), err, 3*k)
	}
	barrier(3)

	// Close barriers what is staged.
	appendK()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if got := j.Syncs(); got != 4 {
		t.Fatalf("after close: %d syncs, want 4", got)
	}
	durable(k)
}

// TestEvictRecordEncoding pins the bytes of a KindEvict record holding a
// task's eviction and an LRA container's. An Eviction's owner is the
// cluster's own bookkeeping: it is not written, so the record encodes as
// it did before evictions carried one, and replay, which skips task
// evictions, reads the same fields.
func TestEvictRecordEncoding(t *testing.T) {
	r := &Record{Seq: 7, Kind: KindEvict, At: time.Unix(1000, 0).UTC(), Evictions: []cluster.Eviction{
		{Container: "j#t3", Node: 2, Demand: resource.New(1024, 1), Owner: 3},
		{Container: "a#0", Node: 2, Demand: resource.New(2048, 1), Tags: []constraint.Tag{"svc", "app:a"}},
	}}
	const want = `{"seq":7,"kind":"evict","at":"1970-01-01T00:16:40Z","nextRun":"0001-01-01T00:00:00Z","notBefore":"0001-01-01T00:00:00Z",` +
		`"evictions":[{"Container":"j#t3","Node":2,"Demand":{"MemoryMB":1024,"VCores":1},"Tags":null},` +
		`{"Container":"a#0","Node":2,"Demand":{"MemoryMB":2048,"VCores":1},"Tags":["svc","app:a"]}]}`
	b, err := AppendRecord(nil, r)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != want {
		t.Fatalf("encoded\n %s\nwant\n %s", b, want)
	}
	back, err := decodeRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.Evictions[0].Owner; got != 0 {
		t.Errorf("decoded owner %d, want 0: the journal does not carry it", got)
	}
}
