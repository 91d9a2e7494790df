// Command medea-load replays the heavy-tailed Google-trace arrival
// process against an in-process medea server at a configurable overload
// factor, and records what the overload-control layer did about it:
// admitted/throttled/shed counts, per-tenant fairness, and the p50/p99
// submit latency of the admitted requests (the service-level promise: a
// shedding server answers fast; it does not queue without bound).
//
// Usage:
//
//	medea-load [-jobs N] [-overload F] [-rate R] [-out BENCH_server.json] [-gate]
//
// One tenant ("aggressor") offers several times its fair share; the
// light tenants stay inside theirs. With -gate the run fails unless
// the overload was actually shed (not absorbed), the aggressor was
// throttled while light tenants were not, and p99 admitted-submit
// latency stayed under -maxp99.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"medea/internal/cluster"
	"medea/internal/core"
	"medea/internal/journal"
	"medea/internal/lra"
	"medea/internal/metrics"
	"medea/internal/resource"
	"medea/internal/server"
	"medea/internal/workload"
)

type tenantResult struct {
	Tenant    string `json:"tenant"`
	Offered   int    `json:"offered"`
	Admitted  int    `json:"admitted"`
	Throttled int    `json:"throttled"`
}

type loadReport struct {
	Benchmark string  `json:"benchmark"`
	Jobs      int     `json:"jobs"`
	Overload  float64 `json:"overload"`
	Rate      float64 `json:"rate_per_sec"`
	Seed      int64   `json:"seed"`

	Offered       int `json:"offered"`
	Admitted      int `json:"admitted"`
	Throttled     int `json:"throttled"`
	ShedOverload  int `json:"shed_overload"`
	ShedQueueFull int `json:"shed_queue_full"`
	Expired       int `json:"expired"`

	P50AdmitMs float64 `json:"p50_admit_ms"`
	P99AdmitMs float64 `json:"p99_admit_ms"`
	P50AllMs   float64 `json:"p50_all_ms"`
	P99AllMs   float64 `json:"p99_all_ms"`

	Deployed int `json:"deployed"`
	Rejected int `json:"rejected"`

	Tenants []tenantResult `json:"tenants"`

	WallSeconds float64 `json:"wall_seconds"`
}

func main() {
	seed := flag.Int64("seed", 42, "random seed")
	jobs := flag.Int("jobs", 400, "trace jobs to replay")
	overload := flag.Float64("overload", 10, "overload factor: divide the trace inter-arrival time by this")
	tenants := flag.Int("tenants", 3, "light tenants (one aggressor tenant is added on top)")
	aggressorMult := flag.Int("aggressor-mult", 2, "aggressor submissions per trace arrival")
	rate := flag.Float64("rate", 600, "server's global submit budget (req/s), fair-shared")
	burst := flag.Float64("burst", 20, "per-tenant burst allowance")
	nodes := flag.Int("nodes", 64, "simulated cluster size")
	queueHigh := flag.Int("queue-high", 64, "backlog high watermark")
	timeoutMs := flag.Int64("timeout-ms", 2000, "per-submission deadline (0 = none)")
	out := flag.String("out", "", "write the JSON report to this file")
	gate := flag.Bool("gate", false, "fail unless overload was shed, fairness held and p99 stayed under -maxp99")
	maxP99 := flag.Duration("maxp99", 250*time.Millisecond, "gate: max p99 admitted-submit latency")
	flag.Parse()
	log.SetPrefix("medea-load: ")
	log.SetFlags(0)

	// In-process server: journaled (memory) core behind the real HTTP
	// stack on a loopback listener, scheduling loop running for real.
	med := core.New(cluster.Grid(*nodes, 8, resource.New(16384, 8)),
		lra.NewNodeCandidates(),
		core.Config{Interval: 50 * time.Millisecond})
	if err := med.AttachJournal(journal.NewMemory(), time.Now()); err != nil {
		log.Fatalf("attach journal: %v", err)
	}
	s := server.New(med, server.Config{
		PollEvery: 10 * time.Millisecond,
		QueueCap:  1024,
		Admission: server.AdmissionConfig{QueueHigh: *queueHigh},
		RateLimit: server.RateLimitConfig{GlobalRate: *rate, Burst: *burst},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.Run(ctx)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	// Keep enough idle connections that concurrent submits don't pay a
	// fresh TCP dial each (the default transport keeps only 2 per host).
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns: 256, MaxIdleConnsPerHost: 256,
	}}

	// The arrival process: heavy-tailed Google-trace jobs, inter-arrival
	// compressed by the overload factor. Each arrival is one LRA submit
	// from a round-robin light tenant, plus aggressor-mult copies from
	// the aggressor tenant.
	trace := workload.GoogleTrace(rand.New(rand.NewSource(*seed)), workload.GoogleTraceConfig{
		Jobs:             *jobs,
		MeanInterarrival: 50 * time.Millisecond,
		MeanTasksPerJob:  10,
		MeanDuration:     3 * time.Second,
	})

	type sample struct {
		tenant   string
		code     int
		errKind  string
		latency  time.Duration
		admitted bool
	}
	var (
		mu      sync.Mutex
		samples []sample
		wg      sync.WaitGroup
	)
	submit := func(id, tenant string, groupCount int) {
		defer wg.Done()
		body, _ := json.Marshal(server.SubmitRequest{
			ID:        id,
			Groups:    []server.GroupSpec{{Name: "w", Count: groupCount, MemoryMB: 256, VCores: 1}},
			Tenant:    tenant,
			TimeoutMs: *timeoutMs,
		})
		start := time.Now()
		resp, err := client.Post(base+"/v1/lras", "application/json", bytes.NewReader(body))
		lat := time.Since(start)
		if err != nil {
			log.Fatalf("submit %s: %v", id, err)
		}
		var er struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		mu.Lock()
		samples = append(samples, sample{
			tenant: tenant, code: resp.StatusCode, errKind: er.Error,
			latency: lat, admitted: resp.StatusCode == http.StatusAccepted,
		})
		mu.Unlock()
	}

	wallStart := time.Now()
	prev := time.Duration(0)
	for i, tt := range trace {
		gap := time.Duration(float64(tt.Arrival-prev) / *overload)
		prev = tt.Arrival
		if gap > 0 {
			time.Sleep(gap)
		}
		count := tt.Req.Count
		if count > 6 {
			count = 6
		}
		light := fmt.Sprintf("tenant-%d", i%*tenants)
		wg.Add(1)
		go submit(fmt.Sprintf("%s-l", tt.Job), light, count)
		for k := 0; k < *aggressorMult; k++ {
			wg.Add(1)
			go submit(fmt.Sprintf("%s-a%d", tt.Job, k), "aggressor", count)
		}
	}
	wg.Wait()

	// Let the backlog settle so deployed/rejected counts are stable.
	settle := time.Now().Add(10 * time.Second)
	for time.Now().Before(settle) {
		if st := fetchStats(base); st.QueueDepth == 0 && st.CorePending == 0 {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	wall := time.Since(wallStart)
	st := fetchStats(base)
	cancel()

	// Aggregate.
	rep := loadReport{
		Benchmark: "server-overload",
		Jobs:      *jobs, Overload: *overload, Rate: *rate, Seed: *seed,
		Offered:       len(samples),
		Admitted:      st.Admitted,
		Throttled:     st.Throttled,
		ShedOverload:  st.ShedOverload,
		ShedQueueFull: st.ShedQueueFull,
		Expired:       st.Expired,
		Deployed:      st.Deployed,
		Rejected:      st.Rejected,
		WallSeconds:   wall.Seconds(),
	}
	var admitMs, allMs []float64
	perTenant := map[string]*tenantResult{}
	for _, sm := range samples {
		ms := float64(sm.latency) / float64(time.Millisecond)
		allMs = append(allMs, ms)
		tr := perTenant[sm.tenant]
		if tr == nil {
			tr = &tenantResult{Tenant: sm.tenant}
			perTenant[sm.tenant] = tr
		}
		tr.Offered++
		if sm.admitted {
			admitMs = append(admitMs, ms)
			tr.Admitted++
		} else if sm.errKind == "throttled" {
			tr.Throttled++
		}
	}
	rep.P50AdmitMs = metrics.Percentile(admitMs, 50)
	rep.P99AdmitMs = metrics.Percentile(admitMs, 99)
	rep.P50AllMs = metrics.Percentile(allMs, 50)
	rep.P99AllMs = metrics.Percentile(allMs, 99)
	for _, tn := range sortedKeys(perTenant) {
		rep.Tenants = append(rep.Tenants, *perTenant[tn])
	}

	enc, _ := json.MarshalIndent(rep, "", "  ")
	fmt.Println(string(enc))
	if *out != "" {
		if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
			log.Fatalf("writing %s: %v", *out, err)
		}
		log.Printf("wrote %s", *out)
	}

	if *gate {
		fail := false
		check := func(ok bool, format string, args ...any) {
			status := "ok  "
			if !ok {
				status = "FAIL"
				fail = true
			}
			log.Printf("gate %s %s", status, fmt.Sprintf(format, args...))
		}
		check(rep.P99AdmitMs <= float64(*maxP99)/float64(time.Millisecond),
			"p99 admitted-submit latency %.2fms <= %s", rep.P99AdmitMs, *maxP99)
		check(rep.Throttled+rep.ShedOverload+rep.ShedQueueFull > 0,
			"overload was shed, not absorbed (throttled %d, shed %d+%d)",
			rep.Throttled, rep.ShedOverload, rep.ShedQueueFull)
		agg := perTenant["aggressor"]
		check(agg != nil && agg.Throttled > 0,
			"aggressor over its share was throttled (%d)", throttledOf(agg))
		lightThrottled := 0
		for tn, tr := range perTenant {
			if tn != "aggressor" {
				lightThrottled += tr.Throttled
			}
		}
		check(lightThrottled == 0,
			"light tenants inside their share were never throttled (%d)", lightThrottled)
		if fail {
			os.Exit(1)
		}
	}
}

type statsView struct {
	Admitted      int `json:"admitted"`
	Throttled     int `json:"throttled"`
	ShedOverload  int `json:"shed_overload"`
	ShedQueueFull int `json:"shed_queue_full"`
	Expired       int `json:"expired"`
	QueueDepth    int `json:"queue_depth"`
	CorePending   int `json:"core_pending"`
	Deployed      int `json:"deployed"`
	Rejected      int `json:"rejected"`
}

func fetchStats(base string) statsView {
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		log.Fatalf("stats: %v", err)
	}
	defer resp.Body.Close()
	var st statsView
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Fatalf("decoding stats: %v", err)
	}
	return st
}

func sortedKeys(m map[string]*tenantResult) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 1; i < len(out); i++ { // insertion sort: tiny n
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func throttledOf(tr *tenantResult) int {
	if tr == nil {
		return 0
	}
	return tr.Throttled
}
