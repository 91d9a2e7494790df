package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"medea/internal/cluster"
	"medea/internal/core"
	"medea/internal/journal"
	"medea/internal/lra"
)

// qualitySamples is how many times per measured phase the constraint
// evaluator scores the live state; the reported share is over all
// samples, so it does not hang on the last few placements.
const qualitySamples = 20

// measuredBlocks is how many blocks the measured phase is cut into for
// the calm-block selection (see calm.go).
const measuredBlocks = 200

// probeEvery is the loop-iteration stride of the traced run's probes.
const probeEvery = 8

// measured is what one measured phase produced besides the loop's own
// phase samples.
type measured struct {
	allocBytes         uint64
	mallocs            uint64
	gcCycles           uint32
	gcPause            time.Duration
	cpu                time.Duration
	subject, violating int
	truncated          bool
	pipeline           pipelineCounts
	probes             probes
}

// probes are timings of read-only calls on live state that nothing in a
// workload's own path isolates; traced runs take them outside the
// timers.
type probes struct {
	clone, active, evaluate, invariants []time.Duration
	containers                          int
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs the measured phase: e.lras LRAs in seeded batch sizes.
// capWall bounds it on a machine (or a commit) far slower than the one
// the operation counts were sized on; a truncated run is reported as
// such.
func (e *env) measure(capWall time.Duration) *measured {
	m := &measured{}
	sizes := batchSizes(e.rng("measured"), e.lras, e.w.minBatch, e.w.maxBatch)
	stride := len(sizes) / qualitySamples
	if stride == 0 {
		stride = 1
	}
	var skipBytes, skipMallocs uint64
	var ms0, ms1 runtime.MemStats
	iter := 0
	e.l.probe = func() {
		iter++
		probing := e.rec != nil && iter%probeEvery == 0
		if iter%stride != 0 && !probing {
			return
		}
		// Harness work on live state: keep its allocations out of the
		// per-LRA figure.
		runtime.ReadMemStats(&ms0)
		if iter%stride == 0 {
			for _, med := range e.t.cores() {
				rep := lra.Evaluate(med.Cluster, med.ActiveEntries())
				m.subject += rep.SubjectContainers
				m.violating += rep.ViolatedContainers
			}
		}
		if probing {
			m.probes.take(e.t.cores()[0])
		}
		runtime.ReadMemStats(&ms1)
		skipBytes += ms1.TotalAlloc - ms0.TotalAlloc
		skipMallocs += ms1.Mallocs - ms0.Mallocs
	}
	e.l.ph = phase{blockIters: (len(sizes) + measuredBlocks - 1) / measuredBlocks}
	e.rec.reset()
	e.t.mark()
	pipe0 := pipelineOf(e.t.cores())
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()
	e.specs, m.truncated = e.l.run(e.specs, sizes, time.Now().Add(capWall))
	e.l.ph.close()
	m.cpu = cpuTime() - cpu0
	for _, r := range blockRefs(e.l.ph.blocks) {
		m.cpu -= r // the reference kernel's CPU time is the harness's
	}
	runtime.ReadMemStats(&after)
	e.l.probe = nil
	m.pipeline = pipelineOf(e.t.cores()).since(pipe0)
	m.allocBytes = after.TotalAlloc - before.TotalAlloc - skipBytes
	m.mallocs = after.Mallocs - before.Mallocs - skipMallocs
	m.gcCycles = after.NumGC - before.NumGC
	m.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	return m
}

func (p *probes) take(med *core.Medea) {
	t0 := time.Now()
	clone := med.Cluster.Clone()
	t1 := time.Now()
	entries := med.Constraints.Active()
	t2 := time.Now()
	lra.Evaluate(clone, entries)
	t3 := time.Now()
	_ = med.CheckInvariants()
	t4 := time.Now()
	p.clone = append(p.clone, t1.Sub(t0))
	p.active = append(p.active, t2.Sub(t1))
	p.evaluate = append(p.evaluate, t3.Sub(t2))
	p.invariants = append(p.invariants, t4.Sub(t3))
	p.containers = med.Cluster.NumContainers()
}

// gate is the correctness check after a workload: every acknowledged and
// not yet removed LRA is deployed with its full container count and
// nothing else is; every core passes its invariant sweep; no node is
// over capacity. It returns the FNV-1a fingerprint of the final
// appID→container→node map.
func (e *env) gate() (string, []error) {
	errs := append([]error(nil), e.l.gate...)
	type placed struct {
		app, container string
		member, node   int
	}
	var all []placed
	deployed := 0
	for mi, med := range e.t.cores() {
		if err := med.CheckInvariants(); err != nil {
			errs = append(errs, fmt.Errorf("member %d invariants: %w", mi, err))
		}
		if n := med.PendingLRAs(); n != 0 {
			errs = append(errs, fmt.Errorf("member %d: %d LRAs still pending", mi, n))
		}
		for _, n := range med.Cluster.Nodes() {
			if !n.Used().Fits(n.Capacity) {
				errs = append(errs, fmt.Errorf("member %d node %s over capacity: %v of %v", mi, n.Name, n.Used(), n.Capacity))
			}
		}
		for _, app := range med.DeployedApps() {
			deployed++
			ids, _ := med.Deployed(app)
			for _, id := range ids {
				node, ok := med.Cluster.ContainerNode(id)
				if !ok {
					errs = append(errs, fmt.Errorf("%s: container %s has no node", app, id))
				}
				all = append(all, placed{app, string(id), mi, int(node)})
			}
		}
	}
	if deployed != len(e.l.live) {
		errs = append(errs, fmt.Errorf("%d LRAs deployed, %d acknowledged and live", deployed, len(e.l.live)))
	}
	count := make(map[string]int, len(e.l.live))
	for _, p := range all {
		count[p.app]++
	}
	for _, s := range e.l.live {
		if count[s.id] != s.containers {
			errs = append(errs, fmt.Errorf("%s: %d of %d containers deployed", s.id, count[s.id], s.containers))
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].container < all[j].container })
	h := fnv.New64a()
	for _, p := range all {
		fmt.Fprintf(h, "%s|%s|%d|%d\n", p.app, p.container, p.member, p.node)
	}
	return fmt.Sprintf("%016x", h.Sum64()), errs
}

// recovery is what the svc_durable journal yields after the run.
type recovery struct {
	recover, load []time.Duration
	tail          int
}

// recoverJournal restarts the scheduler n times from copies of the
// journal directory the run left behind — Load, cluster.FromSnapshot,
// core.Recover, as medea-server does on start — and checks that each
// incarnation holds exactly the LRAs that were live.
func recoverJournal(dir string, live []*spec, n int) (*recovery, error) {
	r := &recovery{}
	want := make(map[string]int, len(live))
	for _, s := range live {
		want[s.id] = s.containers
	}
	for i := 0; i < n; i++ {
		cp := fmt.Sprintf("%s_copy%d", dir, i)
		if err := copyDir(dir, cp); err != nil {
			return nil, err
		}
		jnl, err := journal.OpenDir(cp)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		ckpt, tail, err := jnl.Load()
		t1 := time.Now()
		if err != nil || ckpt == nil || ckpt.Cluster == nil {
			return nil, fmt.Errorf("recovery %d: load: checkpoint %v, err %v", i, ckpt != nil, err)
		}
		c, err := cluster.FromSnapshot(ckpt.Cluster)
		if err != nil {
			return nil, fmt.Errorf("recovery %d: %w", i, err)
		}
		clk := newClock()
		med, err := core.Recover(jnl, c, lra.NewNodeCandidates(), core.Config{
			Interval: interval, CheckpointEvery: 4, Clock: clk.now,
		}, clk.now())
		if err != nil {
			return nil, fmt.Errorf("recovery %d: %w", i, err)
		}
		r.recover = append(r.recover, time.Since(t0))
		r.load = append(r.load, t1.Sub(t0))
		r.tail = len(tail)
		// Placements journaled after the last checkpoint have no
		// containers in the rebuilt cluster; recovery queues them for
		// repair and a few cycles place them again.
		for n := 0; n < maxSteps && (med.PendingLRAs() > 0 || med.PendingRepairs() > 0); n++ {
			clk.advance(8 * interval) // past any repair backoff gate
			med.RunCycle(clk.now())
		}
		got := med.DeployedApps()
		if len(got) != len(want) {
			return nil, fmt.Errorf("recovery %d: %d LRAs deployed, want %d", i, len(got), len(want))
		}
		for _, id := range got {
			if ids, _ := med.Deployed(id); len(ids) != want[id] {
				return nil, fmt.Errorf("recovery %d: %s has %d containers, want %d", i, id, len(ids), want[id])
			}
		}
		if err := med.CheckInvariants(); err != nil {
			return nil, fmt.Errorf("recovery %d: %w", i, err)
		}
		if err := jnl.Close(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(cp); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
