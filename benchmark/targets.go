package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"time"

	"medea/internal/cluster"
	"medea/internal/core"
	"medea/internal/federation"
	"medea/internal/journal"
	"medea/internal/lra"
	"medea/internal/resource"
	"medea/internal/server"
	"medea/internal/taskched"
)

// interval is the virtual time between scheduling rounds (and core's
// Interval, so every round's Tick runs a cycle).
const interval = 500 * time.Millisecond

// nodeCapacity is the simulated machine of §7.4: 16 GB, 8 cores.
var nodeCapacity = resource.New(16384, 8)

// coreTarget drives a core.Medea directly (ilp_steady, and the LRA half
// of two_sched).
type coreTarget struct {
	med *core.Medea
	clk *vclock
	rec *recorder

	cycles, batchSum, requeued int
}

// pipelineCounts are core's cumulative solver counters.
type pipelineCounts struct{ exact, approx, warm, deadlineHits int }

func pipelineOf(meds []*core.Medea) pipelineCounts {
	var c pipelineCounts
	for _, med := range meds {
		c.exact += med.Pipeline.ExactSolves()
		c.approx += med.Pipeline.ApproxSolves()
		c.warm += med.Pipeline.WarmStarts()
		c.deadlineHits += med.Pipeline.DeadlineHits()
	}
	return c
}

func (c pipelineCounts) since(base pipelineCounts) pipelineCounts {
	return pipelineCounts{c.exact - base.exact, c.approx - base.approx, c.warm - base.warm, c.deadlineHits - base.deadlineHits}
}

// newCoreTarget builds a core over a nodes-node grid. virtual injects
// the virtual clock into core and, through it, the algorithm.
func newCoreTarget(nodes, rack int, alg lra.Algorithm, cfg core.Config, virtual bool, rec *recorder) *coreTarget {
	clk := newClock()
	cfg.Interval = interval
	if virtual {
		cfg.Clock = clk.now
	}
	return &coreTarget{
		med: core.New(cluster.Grid(nodes, rack, nodeCapacity), traceAlgorithm(alg, rec), cfg),
		clk: clk,
		rec: rec,
	}
}

func (t *coreTarget) submit(s *spec) error {
	i := t.rec.begin("core.submit", s.id)
	err := t.med.SubmitLRA(s.app, t.clk.now())
	t.rec.end(i)
	return err
}

func (t *coreTarget) cycle() {
	i := t.rec.begin("core.cycle", strconv.Itoa(t.cycles))
	st := t.med.RunCycle(t.clk.now())
	t.rec.end(i)
	t.cycles++
	t.batchSum += st.Batch
	t.requeued += st.Requeued
}

func (t *coreTarget) step() {
	t.clk.advance(interval)
	t.cycle()
}

func (t *coreTarget) deployed(s *spec) (bool, error) {
	ids, ok := t.med.Deployed(s.id)
	return ok && len(ids) == s.containers, nil
}

func (t *coreTarget) remove(s *spec) error {
	i := t.rec.begin("core.remove", s.id)
	defer t.rec.end(i)
	if t.med.WithdrawLRA(s.id, t.clk.now()) {
		return nil
	}
	return t.med.RemoveLRA(s.id)
}

func (t *coreTarget) cores() []*core.Medea { return []*core.Medea{t.med} }
func (t *coreTarget) close()               {}

func (t *coreTarget) mark() { t.cycles, t.batchSum, t.requeued = 0, 0, 0 }

func (t *coreTarget) counts() map[string]int { return map[string]int{"cycles": t.cycles} }

// schedTarget is two_sched: a coreTarget whose every round also feeds
// the task-based scheduler — submit the round's jobs, heartbeat every
// node, release the tasks whose virtual duration has elapsed.
type schedTarget struct {
	*coreTarget
	rounds [][]taskJob // consumed one per round; reused cyclically
	round  int
	// release[r] lists the task allocations to free at the start of
	// round r.
	release map[int][]taskched.Allocation
	// submitted is the wall-clock submit time of each job still waiting
	// for allocations, and left its unallocated task count.
	submitted map[string]time.Time
	left      map[string]int

	taskLat       []time.Duration // SubmitTasks → return of the allocating heartbeat
	heartbeats    []time.Duration // traced runs only
	allocated     int
	taskSubmitted int
}

func newSchedTarget(c *coreTarget, rounds [][]taskJob) *schedTarget {
	return &schedTarget{
		coreTarget: c, rounds: rounds,
		release:   make(map[int][]taskched.Allocation),
		submitted: make(map[string]time.Time),
		left:      make(map[string]int),
	}
}

// taskRound is one virtual 500 ms round of the task-based scheduler;
// withCycle also runs the LRA scheduling cycle, between the task
// submissions and the heartbeats, so this round's tasks wait behind it.
func (t *schedTarget) taskRound(withCycle bool) {
	t.clk.advance(interval)
	now := t.clk.now()
	span := t.rec.begin("taskched.round", strconv.Itoa(t.round))
	for _, a := range t.release[t.round] {
		if err := t.med.Tasks.ReleaseTask(a.Container, a.Queue, a.Demand); err != nil {
			panic(fmt.Sprintf("two_sched: releasing %s: %v", a.Container, err))
		}
	}
	delete(t.release, t.round)
	for _, j := range t.rounds[t.round%len(t.rounds)] {
		// Job ids repeat when the trace wraps around; the round number
		// keeps container ids unique.
		id := j.id + "r" + strconv.Itoa(t.round)
		t.submitted[id] = time.Now()
		t.left[id] = j.req.Count
		t.taskSubmitted += j.req.Count
		if err := t.med.SubmitTasks(id, "default", now, j.req); err != nil {
			panic(fmt.Sprintf("two_sched: submitting %s: %v", id, err))
		}
	}
	if withCycle {
		t.cycle()
	}
	for n := 0; n < t.med.Cluster.NumNodes(); n++ {
		var h0 time.Time
		if t.rec != nil {
			h0 = time.Now()
		}
		allocs := t.med.Tasks.NodeHeartbeat(cluster.NodeID(n), now)
		if len(allocs) == 0 {
			if t.rec != nil {
				t.heartbeats = append(t.heartbeats, time.Since(h0))
			}
			continue
		}
		got := time.Now()
		if t.rec != nil {
			t.heartbeats = append(t.heartbeats, got.Sub(h0))
		}
		for _, a := range allocs {
			t.taskLat = append(t.taskLat, got.Sub(t.submitted[a.App]))
			if t.left[a.App]--; t.left[a.App] == 0 {
				delete(t.left, a.App)
				delete(t.submitted, a.App)
			}
			due := t.round + 1 + int(a.Duration/interval)
			t.release[due] = append(t.release[due], a)
		}
		t.allocated += len(allocs)
	}
	t.rec.end(span)
	t.round++
}

func (t *schedTarget) step() { t.taskRound(true) }

func (t *schedTarget) mark() {
	t.coreTarget.mark()
	t.taskLat, t.heartbeats, t.allocated, t.taskSubmitted = nil, nil, 0, 0
}

func (t *schedTarget) counts() map[string]int {
	c := t.coreTarget.counts()
	c["tasks_allocated"], c["tasks_submitted"] = t.allocated, t.taskSubmitted
	return c
}

// svcTarget is svc_durable: medea-server's stack — server over a
// file-journaled core — behind a real loopback listener, driven over one
// keep-alive connection.
type svcTarget struct {
	srv     *server.Server
	med     *core.Medea
	jnl     *journal.File
	tj      *tracedJournal // nil when untraced
	clk     *vclock
	rec     *recorder
	httpSrv *http.Server
	served  chan error
	client  *http.Client
	base    string
	dir     string
	refused int   // non-2xx answers since the last mark
	syncs0  int64 // journal fsyncs at the last mark
}

func newSvcTarget(dir string, rec *recorder) (*svcTarget, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	jnl, err := journal.OpenDir(dir) // default policy: fsync every record
	if err != nil {
		return nil, err
	}
	t := &svcTarget{jnl: jnl, clk: newClock(), rec: rec, dir: dir}
	// medea-server's defaults, except the clock.
	t.med = core.New(cluster.Grid(32, 8, nodeCapacity), traceAlgorithm(lra.NewNodeCandidates(), rec), core.Config{
		Interval: interval, SolverBudget: 500 * time.Millisecond, CheckpointEvery: 4, Clock: t.clk.now,
	})
	var j journal.Journal = jnl
	if rec != nil {
		t.tj = traceJournal(jnl, rec)
		j = t.tj
	}
	if err := t.med.AttachJournal(j, t.clk.now()); err != nil {
		return nil, err
	}
	t.srv = server.New(t.med, server.Config{Clock: t.clk.now})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t.base = "http://" + ln.Addr().String()
	t.httpSrv = &http.Server{Handler: traceHandler(t.srv.Handler(), rec)}
	t.served = make(chan error, 1)
	go func() { t.served <- t.httpSrv.Serve(ln) }()
	t.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	return t, nil
}

// do sends one request and returns the status code and body.
func (t *svcTarget) do(method, path string, body []byte) (int, []byte, error) {
	i := t.rec.begin("http."+method, path)
	defer t.rec.end(i)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, t.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if resp.StatusCode >= 300 {
		t.refused++
	}
	return resp.StatusCode, b, err
}

func (t *svcTarget) submit(s *spec) error {
	code, _, err := t.do(http.MethodPost, "/v1/lras", s.body)
	if err == nil && code != http.StatusAccepted {
		err = fmt.Errorf("POST %s: status %d", s.id, code)
	}
	return err
}

func (t *svcTarget) step() {
	t.clk.advance(interval)
	i := t.rec.begin("server.step", "")
	t.srv.Step()
	t.rec.end(i)
}

func (t *svcTarget) deployed(s *spec) (bool, error) {
	code, b, err := t.do(http.MethodGet, "/v1/lras/"+s.id, nil)
	if err != nil {
		return false, err
	}
	if code != http.StatusOK {
		return false, fmt.Errorf("GET %s: status %d", s.id, code)
	}
	var st server.StatusResponse
	if err := json.Unmarshal(b, &st); err != nil {
		return false, err
	}
	return st.State == "deployed" && len(st.Containers) == s.containers, nil
}

func (t *svcTarget) remove(s *spec) error {
	code, _, err := t.do(http.MethodDelete, "/v1/lras/"+s.id, nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("DELETE %s: status %d", s.id, code)
	}
	return err
}

func (t *svcTarget) cores() []*core.Medea { return []*core.Medea{t.med} }

func (t *svcTarget) mark() {
	t.refused, t.syncs0 = 0, t.jnl.Syncs()
	if t.tj != nil {
		t.tj.appends, t.tj.checkpoints, t.tj.bytes = 0, 0, 0
	}
}

func (t *svcTarget) counts() map[string]int {
	return map[string]int{"fsyncs": int(t.jnl.Syncs() - t.syncs0), "refused": t.refused}
}

// close stops the listener and waits for the serving goroutine; the
// journal directory stays for the recovery measurement.
func (t *svcTarget) close() {
	t.client.CloseIdleConnections()
	_ = t.httpSrv.Close()
	<-t.served
	_ = t.jnl.Close()
}

// fedTarget is fed_route: three member clusters behind scout and
// balancer, everything in-process on the virtual clock.
type fedTarget struct {
	fleet *federation.Fleet
	clk   *vclock
	rec   *recorder
	tjs   []*tracedJournal
	// routed0 and spill0 are the fleet's counters at the last mark.
	routed0, spill0 int
}

func newFedTarget(rec *recorder) (*fedTarget, error) {
	t := &fedTarget{clk: newClock(), rec: rec}
	cfg := federation.FleetConfig{
		Members:        3,
		NodesPerMember: 32,
		RackSize:       8,
		NodeCapacity:   nodeCapacity,
		Core:           core.Config{Interval: interval, CheckpointEvery: 4, Clock: t.clk.now},
		Algorithm:      func() lra.Algorithm { return traceAlgorithm(lra.NewNodeCandidates(), rec) },
		// Real-time budgets far beyond any in-process call, and no backoff
		// sleeps: wall time never decides an outcome.
		Scout: federation.ScoutConfig{ProbeInterval: interval, ProbeTimeout: 30 * time.Second},
		Route: federation.RouteConfig{
			AttemptTimeout: 30 * time.Second,
			Sleep:          func(time.Duration) {},
			Clock:          t.clk.now,
		},
		Clock: t.clk.now,
	}
	if rec != nil {
		cfg.MakeJournal = func(string) journal.Journal {
			tj := traceJournal(journal.NewMemory(), rec)
			t.tjs = append(t.tjs, tj)
			return tj
		}
	}
	fleet, err := federation.NewFleet(cfg)
	if err != nil {
		return nil, err
	}
	t.fleet = fleet
	// One probe round so the scout has capacity reports to rank by.
	fleet.Step(t.clk.now())
	return t, nil
}

func (t *fedTarget) submit(s *spec) error {
	i := t.rec.begin("federation.submit", s.id)
	_, err := t.fleet.Balancer.Submit(s.req)
	t.rec.end(i)
	return err
}

func (t *fedTarget) step() {
	t.clk.advance(interval)
	now := t.clk.now()
	if t.rec == nil {
		t.fleet.Step(now)
		return
	}
	// Fleet.Step taken apart, so each half gets its span.
	for _, m := range t.fleet.Members {
		i := t.rec.begin("server.step", m.ID)
		m.Step()
		t.rec.end(i)
	}
	i := t.rec.begin("federation.balancer_step", "")
	t.fleet.Balancer.Step(now)
	t.rec.end(i)
}

func (t *fedTarget) deployed(s *spec) (bool, error) {
	i := t.rec.begin("federation.status", s.id)
	st, err := t.fleet.Balancer.Status(s.id)
	t.rec.end(i)
	if err != nil {
		return false, err
	}
	return st.State == "deployed" && len(st.Containers) == s.containers, nil
}

func (t *fedTarget) remove(s *spec) error {
	i := t.rec.begin("federation.remove", s.id)
	err := t.fleet.Balancer.Remove(s.id)
	t.rec.end(i)
	return err
}

func (t *fedTarget) cores() []*core.Medea {
	out := make([]*core.Medea, len(t.fleet.Members))
	for i, m := range t.fleet.Members {
		out[i] = m.Med
	}
	return out
}

func (t *fedTarget) close() { t.fleet.Close() }

func (t *fedTarget) mark() {
	t.routed0, t.spill0 = t.fleet.Stats.Routed(), t.fleet.Stats.Spillovers()
	for _, tj := range t.tjs {
		tj.appends, tj.checkpoints, tj.bytes = 0, 0, 0
	}
}

func (t *fedTarget) counts() map[string]int {
	return map[string]int{
		"routed":     t.fleet.Stats.Routed() - t.routed0,
		"spillovers": t.fleet.Stats.Spillovers() - t.spill0,
	}
}
