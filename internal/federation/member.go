package federation

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"medea/internal/cluster"
	"medea/internal/core"
	"medea/internal/journal"
	"medea/internal/lra"
	"medea/internal/resource"
	"medea/internal/server"
)

// Gate is a member's fault-injection valve, sitting between the
// balancer/scout and the member's HTTP handler, and the only way to
// fault a member (Member.Restart undoes a crash). Callers reach it
// through Scout.Member(id) and flip it to simulate a crashed member
// (process gone), a partitioned member (process fine, network gone) and
// a Byzantine slow member (alive but answering probes late). It is
// concurrency-safe: the balancer's submit path and the fault injector
// race on it by design.
type Gate struct {
	mu          sync.Mutex
	crashed     bool
	partitioned bool
	probeDelay  time.Duration
	slowEvery   int // delay only every Nth call (0 = every call)
	calls       int
	// tailDelay stalls the *response* after the member has served the
	// request — the ack-dropped Byzantine case: the caller times out, the
	// member committed the work. Reconciliation must clean these up.
	tailDelay time.Duration
	tailEvery int
	tailCalls int
}

// Crash marks the member's process as gone.
func (g *Gate) Crash() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.crashed = true
}

// Partition severs (true) or restores (false) the member's network.
func (g *Gate) Partition(p bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.partitioned = p
}

// Slow makes every Nth request (every request when every <= 1) stall for
// delay before being served; 0 delay disables.
func (g *Gate) Slow(delay time.Duration, every int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.probeDelay = delay
	g.slowEvery = every
	g.calls = 0
}

// SlowTail makes every Nth request (every request when every <= 1) serve
// normally but stall its response for delay — the member accepts the
// work, the caller's ack times out; 0 delay disables.
func (g *Gate) SlowTail(delay time.Duration, every int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.tailDelay = delay
	g.tailEvery = every
	g.tailCalls = 0
}

// Heal clears the partition and slowness (a crash is not a network
// fault: restarting the process is Restore's job).
func (g *Gate) Heal() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.partitioned = false
	g.probeDelay = 0
	g.slowEvery = 0
	g.tailDelay = 0
	g.tailEvery = 0
}

// Restore clears the crash flag after the member's process has been
// rebuilt (Member.Restart). Network faults — partition, slowness — are
// environmental and survive a process restart; Heal lifts those.
func (g *Gate) Restore() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.crashed = false
}

// Crashed reports whether the member's process is gone.
func (g *Gate) Crashed() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.crashed
}

// admit decides one request's fate: an error (unreachable), a delay
// before serving, or a delay after serving (the ack-dropped case).
func (g *Gate) admit() (delay, tail time.Duration, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.crashed {
		return 0, 0, fmt.Errorf("member crashed: connection refused")
	}
	if g.partitioned {
		return 0, 0, fmt.Errorf("member partitioned: network unreachable")
	}
	if g.probeDelay > 0 {
		g.calls++
		if g.slowEvery <= 1 || g.calls%g.slowEvery == 0 {
			delay = g.probeDelay
		}
	}
	if g.tailDelay > 0 {
		g.tailCalls++
		if g.tailEvery <= 1 || g.tailCalls%g.tailEvery == 0 {
			tail = g.tailDelay
		}
	}
	return delay, tail, nil
}

// Member is one simulated cluster of the federation: a full journaled
// scheduler core behind the serving layer, reachable only through
// Member.request, which serves its HTTP handler behind its fault Gate —
// the balancer and scout cannot cheat past the member's own overload
// control or the injected faults.
type Member struct {
	ID   string
	Srv  *server.Server
	Med  *core.Medea
	Jnl  journal.Journal
	Gate *Gate

	cfg MemberConfig // retained so Restart can rebuild the stack
	// wrap, when set, sees every request the member serves, in front of
	// whichever serving layer is current: tests count and fake traffic
	// through it, and it survives Restart.
	wrap func(http.Handler) http.Handler
}

// MemberConfig sizes one member cluster.
type MemberConfig struct {
	ID       string
	Nodes    int
	RackSize int
	NodeCap  resource.Vector
	Core     core.Config
	Server   server.Config
	Journal  journal.Journal // nil = in-memory
	Now      time.Time       // journal attach time
	// Algorithm builds the member's LRA placement algorithm (nil =
	// Medea-NC). It is called once at construction and again on every
	// Restart: a restarted process loses in-memory solver state (the
	// ILP's arena pool) exactly like a real one.
	Algorithm func() lra.Algorithm
}

// algorithm resolves the configured algorithm factory.
func (cfg MemberConfig) algorithm() lra.Algorithm {
	if cfg.Algorithm != nil {
		return cfg.Algorithm()
	}
	return lra.NewNodeCandidates()
}

// NewMember builds a member cluster with its serving layer and journal
// attached.
func NewMember(cfg MemberConfig) (*Member, error) {
	cl := cluster.Grid(cfg.Nodes, cfg.RackSize, cfg.NodeCap)
	med := core.New(cl, cfg.algorithm(), cfg.Core)
	jnl := cfg.Journal
	if jnl == nil {
		jnl = journal.NewMemory()
	}
	if err := med.AttachJournal(jnl, cfg.Now); err != nil {
		return nil, fmt.Errorf("federation: member %s journal: %w", cfg.ID, err)
	}
	srv := server.New(med, cfg.Server)
	return &Member{ID: cfg.ID, Srv: srv, Med: med, Jnl: jnl, Gate: &Gate{}, cfg: cfg}, nil
}

// Restart revives a crashed member the way a real scheduler host comes
// back: the journal and the (still running) cluster survived, everything
// in the process was lost. The core is rebuilt by core.Recover over the
// member's journal against live cluster truth, a fresh serving layer is
// put in front of it (the old submit queue's un-drained entries are gone
// — the federation balancer's anti-entropy sweep re-routes those), and
// the gate's crash flag is cleared. No-op error-free if the member was
// never crashed.
func (m *Member) Restart(now time.Time) error {
	if !m.Gate.Crashed() {
		return nil
	}
	med, err := core.Recover(m.Jnl, m.Med.Cluster, m.cfg.algorithm(), m.cfg.Core, now)
	if err != nil {
		return fmt.Errorf("federation: restarting %s: %w", m.ID, err)
	}
	m.Med = med
	m.Srv = server.New(med, m.cfg.Server)
	m.Gate.Restore()
	return nil
}

// request is the one place the federation layer sends a member a
// request, and the whole of the in-process transport: no socket, no
// client, no wall-clock time. The gate admits the request or refuses it
// (crashed, partitioned). An injected delay at or past timeout blows the
// deadline before the member serves the request; an injected tail at or
// past it blows the deadline after the member has served it, the
// ack-dropped case. Either answers context.DeadlineExceeded itself,
// which callers read as "the request may have landed". Otherwise the
// status code comes back. body, when set, is posted as JSON; out, when
// set, receives the decoded answer: a 200 whose body does not decode is
// an error, any other status speaks for itself.
func (m *Member) request(timeout time.Duration, method, path string, body []byte, out any) (int, error) {
	delay, tail, err := m.Gate.admit()
	if err != nil {
		return 0, err
	}
	if blown(delay, timeout) {
		return 0, context.DeadlineExceeded
	}
	var payload io.Reader
	if body != nil {
		payload = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, "http://"+m.ID+path, payload)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := &responseRecorder{header: make(http.Header), code: http.StatusOK}
	h := m.Srv.Handler()
	if m.wrap != nil {
		h = m.wrap(h)
	}
	h.ServeHTTP(rec, req)
	if blown(tail, timeout) {
		return 0, context.DeadlineExceeded
	}
	if out != nil {
		if err := json.Unmarshal(rec.buf.Bytes(), out); err != nil && rec.code == http.StatusOK {
			return 0, fmt.Errorf("%s %s on %s: %w", method, path, m.ID, err)
		}
	}
	return rec.code, nil
}

// blown decides an injected stall from declared durations alone: one at
// least as long as the request's timeout is a missed deadline.
func blown(stall, timeout time.Duration) bool {
	return stall > 0 && stall >= timeout
}

// Step runs one scheduling-loop iteration synchronously; no-op once
// crashed.
func (m *Member) Step() {
	if m.Gate.Crashed() {
		return
	}
	m.Srv.Step()
}

// responseRecorder is the minimal http.ResponseWriter Member.request
// needs (httptest is off-limits outside _test files).
type responseRecorder struct {
	header      http.Header
	buf         bytes.Buffer
	code        int
	wroteHeader bool
}

func (r *responseRecorder) Header() http.Header { return r.header }

func (r *responseRecorder) WriteHeader(code int) {
	if !r.wroteHeader {
		r.code = code
		r.wroteHeader = true
	}
}

func (r *responseRecorder) Write(b []byte) (int, error) {
	if !r.wroteHeader {
		r.WriteHeader(http.StatusOK)
	}
	return r.buf.Write(b)
}
