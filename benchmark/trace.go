package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"medea/internal/cluster"
	"medea/internal/constraint"
	"medea/internal/journal"
	"medea/internal/lra"
)

// span is one timed call into a layer. Times are nanoseconds since the
// recorder was created; Parent indexes the enclosing span (-1 at the
// root); ID is the LRA id or cycle number the call worked on.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced run: every method is a no-op, so the drivers carry their
// span calls unconditionally.
//
// One stack serves every goroutine: the driver blocks while an HTTP
// handler works, so at any instant one goroutine is inside the system.
// The exception is core's parallel sub-batch fan-out, whose concurrent
// Place calls are recorded with leaf (no push) under the enclosing span.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name, id string) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, ID: id, Start: int64(now), Parent: r.top()})
	i := len(r.spans) - 1
	r.stack = append(r.stack, i)
	return i
}

func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = int64(now)
	r.stack = r.stack[:len(r.stack)-1]
}

// leaf records a finished span under the current top of the stack
// without entering it.
func (r *recorder) leaf(name, id string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Name: name, ID: id, Start: int64(start.Sub(r.t0)), End: int64(end.Sub(r.t0)), Parent: r.top(),
	})
}

func (r *recorder) top() int {
	if len(r.stack) == 0 {
		return -1
	}
	return r.stack[len(r.stack)-1]
}

// reset drops everything recorded so far (set-up and warm-up spans).
func (r *recorder) reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans, r.stack = nil, nil
}

// durations returns the duration of every span with the given name.
func (r *recorder) durations(name string) []time.Duration {
	if r == nil {
		return nil
	}
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

// selfIntervals returns, per span, the parts of its interval that none of
// its child spans cover. Children may overlap (parallel Place calls), so
// what is cut out is the union of their intervals.
func (r *recorder) selfIntervals() [][][2]int64 {
	children := make([][]int, len(r.spans))
	for i, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([][][2]int64, len(r.spans))
	for i, s := range r.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return r.spans[kids[a]].Start < r.spans[kids[b]].Start })
		edge := s.Start
		for _, k := range kids {
			ks, ke := r.spans[k].Start, r.spans[k].End
			if ks > edge {
				self[i] = append(self[i], [2]int64{edge, ks})
			}
			if ke > edge {
				edge = ke
			}
		}
		if s.End > edge {
			self[i] = append(self[i], [2]int64{edge, s.End})
		}
	}
	return self
}

func length(intervals [][2]int64) time.Duration {
	var d int64
	for _, iv := range intervals {
		d += iv[1] - iv[0]
	}
	return time.Duration(d)
}

// selfOf returns the self time — duration minus the part the children
// cover — of every span with the given name.
func (r *recorder) selfOf(name string) []time.Duration {
	if r == nil {
		return nil
	}
	self := r.selfIntervals()
	var out []time.Duration
	for i, s := range r.spans {
		if s.Name == name {
			out = append(out, length(self[i]))
		}
	}
	return out
}

// layerBusy is the time during which at least one span of the layer
// ("lra" owns "lra.place") was running its own code rather than a
// child's: the union of the layer's self intervals, so that parallel
// calls count once.
func (r *recorder) layerBusy(layer string) time.Duration {
	if r == nil {
		return 0
	}
	self := r.selfIntervals()
	var all [][2]int64
	for i, s := range r.spans {
		if strings.HasPrefix(s.Name, layer+".") {
			all = append(all, self[i]...)
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a][0] < all[b][0] })
	var busy, edge int64
	for _, iv := range all {
		if iv[0] > edge {
			edge = iv[0]
		}
		if iv[1] > edge {
			busy += iv[1] - edge
			edge = iv[1]
		}
	}
	return time.Duration(busy)
}

func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedAlg wraps the placement algorithm: one lra.place span per call.
type tracedAlg struct {
	lra.Algorithm
	rec *recorder
}

func (a tracedAlg) Place(state *cluster.Cluster, apps []*lra.Application, active []constraint.Entry, opts lra.Options) *lra.Result {
	start := time.Now()
	res := a.Algorithm.Place(state, apps, active, opts)
	a.rec.leaf("lra.place", apps[0].ID, start, time.Now())
	return res
}

// tracedCycleAlg keeps the ILP scheduler's CycleAware hook visible to
// core through the wrapper.
type tracedCycleAlg struct {
	tracedAlg
	cycle lra.CycleAware
}

func (a tracedCycleAlg) BeginCycle() { a.cycle.BeginCycle() }

// traceAlgorithm wraps alg when rec is non-nil.
func traceAlgorithm(alg lra.Algorithm, rec *recorder) lra.Algorithm {
	if rec == nil {
		return alg
	}
	t := tracedAlg{Algorithm: alg, rec: rec}
	if ca, ok := alg.(lra.CycleAware); ok {
		return tracedCycleAlg{tracedAlg: t, cycle: ca}
	}
	return t
}

// tracedJournal wraps the journal: journal.append and journal.checkpoint
// spans, record and checkpoint counts, and — for the file backend — the
// bytes each append added to the WAL.
type tracedJournal struct {
	journal.Journal
	rec *recorder
	wal string // WAL path of a file journal, "" otherwise

	appends, checkpoints int
	bytes, walSize       int64
}

func traceJournal(j journal.Journal, rec *recorder) *tracedJournal {
	t := &tracedJournal{Journal: j, rec: rec}
	if f, ok := j.(*journal.File); ok {
		t.wal = filepath.Join(f.Dir(), "wal.log")
	}
	return t
}

func (t *tracedJournal) Append(r *journal.Record) error {
	i := t.rec.begin("journal.append", r.AppID)
	err := t.Journal.Append(r)
	t.rec.end(i)
	t.appends++
	if t.wal != "" {
		if st, serr := os.Stat(t.wal); serr == nil {
			t.bytes += st.Size() - t.walSize
			t.walSize = st.Size()
		}
	}
	return err
}

func (t *tracedJournal) WriteCheckpoint(c *journal.Checkpoint) error {
	i := t.rec.begin("journal.checkpoint", "")
	err := t.Journal.WriteCheckpoint(c)
	t.rec.end(i)
	t.checkpoints++
	t.walSize = 0 // the checkpoint rotated the WAL
	return err
}

// Lag keeps the server's journal-lag admission signal working through
// the wrapper.
func (t *tracedJournal) Lag() int {
	if lg, ok := t.Journal.(journal.Lagger); ok {
		return lg.Lag()
	}
	return 0
}

// traceHandler is the middleware around server.Handler(): one span per
// request, named after the route.
func traceHandler(h http.Handler, rec *recorder) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := "server.other"
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/lras":
			name = "server.submit"
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/lras/"):
			name = "server.status"
		case r.Method == http.MethodDelete && strings.HasPrefix(r.URL.Path, "/v1/lras/"):
			name = "server.remove"
		}
		i := rec.begin(name, strings.TrimPrefix(r.URL.Path, "/v1/lras/"))
		h.ServeHTTP(w, r)
		rec.end(i)
	})
}
