// Command medea-server runs the Medea scheduler as a long-lived service:
// an HTTP/JSON API over a journaled core.Medea with admission control,
// per-tenant rate limiting, backpressure and graceful drain.
//
// Usage:
//
//	medea-server [-addr HOST:PORT] [-journal DIR] [flags]
//
// With -journal, the scheduler state is durable: the server recovers
// from the journal on startup (rebuilding the simulated cluster from the
// last checkpoint and replaying the write-ahead tail), and a SIGTERM
// drains gracefully — admission stops, queued work is flushed into the
// journaled core, a final checkpoint is written, and the process exits 0.
// A crash (SIGKILL) instead of a drain loses nothing committed either:
// the next incarnation re-adopts checkpointed placements and re-queues
// anything the WAL accepted but the checkpoint missed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"medea/internal/cluster"
	"medea/internal/core"
	"medea/internal/journal"
	"medea/internal/lra"
	"medea/internal/resource"
	"medea/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7075", "listen address (use :0 for an ephemeral port)")
	journalDir := flag.String("journal", "", "journal directory for durable state (empty = in-memory, volatile)")
	nodes := flag.Int("nodes", 64, "simulated cluster size (ignored when recovering from a checkpoint)")
	rackSize := flag.Int("rack-size", 8, "nodes per rack")
	nodeMemMB := flag.Int64("node-mem-mb", 16384, "memory per node (MB)")
	nodeCores := flag.Int64("node-cores", 8, "cores per node")
	algName := flag.String("alg", "nc", "placement algorithm: nc, tp, serial or ilp")
	interval := flag.Duration("interval", 250*time.Millisecond, "scheduling-cycle interval (paper's batching window)")
	budget := flag.Duration("budget", 500*time.Millisecond, "solver budget per cycle (request deadlines clamp it further)")
	checkpointEvery := flag.Int("checkpoint-every", 4, "scheduling cycles between checkpoints")
	poll := flag.Duration("poll", 20*time.Millisecond, "scheduling-loop poll granularity")
	queueCap := flag.Int("queue-cap", 1024, "bounded submit-queue capacity")
	rate := flag.Float64("rate", 0, "global submit budget in req/s, fair-shared across tenants (0 = unlimited)")
	burst := flag.Float64("burst", 0, "per-tenant burst allowance (0 = rate/4)")
	queueHigh := flag.Int("queue-high", 0, "backlog high watermark: shed submits at or above it (0 = queue-cap)")
	queueLow := flag.Int("queue-low", 0, "backlog low watermark: resume admitting at or below it (0 = high/2)")
	lagHigh := flag.Int("lag-high", 4096, "journal-lag high watermark (records since last checkpoint)")
	lagLow := flag.Int("lag-low", 0, "journal-lag low watermark (0 = high/2)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "budget for the final scheduling cycle during drain")
	flag.Parse()
	log.SetPrefix("medea-server: ")
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)

	var alg lra.Algorithm
	switch *algName {
	case "nc":
		alg = lra.NewNodeCandidates()
	case "tp":
		alg = lra.NewTagPopularity()
	case "serial":
		alg = lra.NewSerial()
	case "ilp":
		alg = lra.NewILP()
	default:
		log.Fatalf("unknown algorithm %q (want nc, tp, serial or ilp)", *algName)
	}
	coreCfg := core.Config{
		Interval:        *interval,
		SolverBudget:    *budget,
		CheckpointEvery: *checkpointEvery,
	}

	med, jnl, err := buildScheduler(*journalDir, *nodes, *rackSize,
		resource.New(*nodeMemMB, *nodeCores), alg, coreCfg)
	if err != nil {
		log.Fatal(err)
	}

	s := server.New(med, server.Config{
		PollEvery: *poll,
		QueueCap:  *queueCap,
		Admission: server.AdmissionConfig{
			QueueHigh: pick(*queueHigh, *queueCap),
			QueueLow:  *queueLow,
			LagHigh:   *lagHigh,
			LagLow:    *lagLow,
		},
		RateLimit: server.RateLimitConfig{GlobalRate: *rate, Burst: *burst},
		Logf:      log.Printf,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	// The listen line goes to stdout so harnesses can scrape the port.
	fmt.Printf("medea-server listening on http://%s\n", ln.Addr())
	os.Stdout.Sync()

	loopCtx, stopLoop := context.WithCancel(context.Background())
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		s.Run(loopCtx)
	}()
	httpSrv := &http.Server{Handler: s.Handler()}
	httpDone := make(chan error, 1)
	go func() { httpDone <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	sig := <-sigCh
	log.Printf("received %s, draining", sig)

	// Graceful drain: stop the loop, flush + final cycle + checkpoint,
	// then close the listener and journal. Exit 0 = nothing lost.
	stopLoop()
	<-loopDone
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := s.Shutdown(drainCtx); err != nil {
		log.Fatalf("drain: %v", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if jnl != nil {
		if err := jnl.Close(); err != nil {
			log.Fatalf("journal close: %v", err)
		}
	}
	log.Printf("drained: %d deployed, %d pending journaled, exiting", med.DeployedLRAs(), med.PendingLRAs())
}

// buildScheduler opens (or skips) the journal and either recovers the
// previous incarnation's state or starts fresh. On recovery the
// simulated cluster is rebuilt from the last checkpoint's snapshot —
// placements journaled after that checkpoint have no containers in the
// rebuilt cluster, so recovery re-queues them for placement (they were
// accepted, not yet committed to a checkpoint; nothing checkpointed is
// lost).
func buildScheduler(dir string, nodes, rackSize int, capacity resource.Vector,
	alg lra.Algorithm, cfg core.Config) (*core.Medea, *journal.File, error) {
	if dir == "" {
		log.Printf("no -journal: state is volatile, a restart loses everything")
		return core.New(cluster.Grid(nodes, rackSize, capacity), alg, cfg), nil, nil
	}
	jnl, err := journal.OpenDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	cp, tail, err := jnl.Load()
	if err != nil {
		return nil, nil, fmt.Errorf("journal: %w", err)
	}
	now := time.Now()
	if cp == nil && len(tail) == 0 {
		med := core.New(cluster.Grid(nodes, rackSize, capacity), alg, cfg)
		if err := med.AttachJournal(jnl, now); err != nil {
			return nil, nil, fmt.Errorf("attach journal: %w", err)
		}
		log.Printf("fresh start: %d nodes, journal %s", nodes, dir)
		return med, jnl, nil
	}
	var c *cluster.Cluster
	if cp != nil && cp.Cluster != nil {
		if c, err = cluster.FromSnapshot(cp.Cluster); err != nil {
			return nil, nil, fmt.Errorf("rebuilding cluster from checkpoint: %w", err)
		}
	} else {
		c = cluster.Grid(nodes, rackSize, capacity)
	}
	med, err := core.Recover(jnl, c, alg, cfg, now)
	if err != nil {
		return nil, nil, fmt.Errorf("recover: %w", err)
	}
	r := med.Recovery
	log.Printf("recovered from %s: %d replayed, %d adopted, %d re-queued, %d orphans, %s; %d deployed, %d pending",
		dir, r.JournalReplayed, r.ContainersAdopted, r.ZombiesRequeued, r.OrphansReleased,
		r.RecoveryWallTime.Round(time.Microsecond), med.DeployedLRAs(), med.PendingLRAs())
	if jnl.RecoveredTornTail() {
		log.Printf("journal had a torn final WAL line (crash mid-write); dropped, state is consistent")
	}
	return med, jnl, nil
}

// pick returns v if set, else def.
func pick(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}
