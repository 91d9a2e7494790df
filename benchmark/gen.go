package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"medea/internal/lra"
	"medea/internal/resource"
	"medea/internal/server"
	"medea/internal/taskched"
	"medea/internal/workload"
)

// spec is one generated LRA request, in the form its workload submits it
// in: an lra.Application for the workloads that call core directly, a
// wire request (and its pre-encoded body) for the HTTP ones.
type spec struct {
	id         string
	containers int
	app        *lra.Application
	req        *server.SubmitRequest
	body       []byte
}

// balanced returns n draws from 0..k-1 in which every window of k
// consecutive draws holds each value once, in seeded order. Every seed
// therefore submits the same multiset of request shapes — what differs is
// the arrival order — so aggregate work per run does not depend on the
// draw and the spread between seeds is the machine's.
func balanced(rng *rand.Rand, n, k int) []int {
	out := make([]int, 0, n+k)
	for len(out) < n {
		out = append(out, rng.Perm(k)...)
	}
	return out[:n]
}

// templateApps generates the ilp_steady requests: the paper's §7.1
// TensorFlow and HBase templates and the §2.2 Storm+Memcached pipeline
// from internal/workload, in equal thirds.
func templateApps(rng *rand.Rand, n int) []*spec {
	kinds := balanced(rng, n, 3)
	out := make([]*spec, n)
	for i, k := range kinds {
		var app *lra.Application
		switch k {
		case 0:
			app = workload.TensorFlow(fmt.Sprintf("tf-%05d", i), workload.DefaultTF())
		case 1:
			app = workload.HBase(fmt.Sprintf("hb-%05d", i), workload.HBaseConfig{
				Workers: 10, MaxWorkersPerNode: 4, RackAffinity: true, MasterConstraints: true,
			})
		default:
			app = workload.StormPipeline(fmt.Sprintf("st-%05d", i), 4, "intra-inter")
		}
		out[i] = &spec{id: app.ID, containers: app.NumContainers(), app: app}
	}
	return out
}

// spreadApps generates the small requests of the NC workloads: one group
// of 2–4 containers that must not share a node (node anti-affinity on a
// per-app tag), in the wire form.
func spreadApps(rng *rand.Rand, n int, prefix string, mem int64) []*spec {
	sizes := balanced(rng, n, 3)
	out := make([]*spec, n)
	for i, sz := range sizes {
		id := fmt.Sprintf("%s-%05d", prefix, i)
		tag := fmt.Sprintf("a%s%05d", prefix, i)
		req := &server.SubmitRequest{
			ID:          id,
			Groups:      []server.GroupSpec{{Name: "w", Count: 2 + sz, MemoryMB: mem, VCores: 1, Tags: []string{"svc", tag}}},
			Constraints: []string{fmt.Sprintf("{%s, {%s, 0, 0}, node}", tag, tag)},
		}
		body, err := json.Marshal(req)
		if err != nil {
			panic(err) // unreachable: plain struct of strings and ints
		}
		out[i] = &spec{id: id, containers: 2 + sz, req: req, body: body}
	}
	return out
}

// batchSizes returns per-iteration batch sizes drawn evenly from lo..hi
// until they sum to n LRAs.
func batchSizes(rng *rand.Rand, n, lo, hi int) []int {
	var out []int
	for left := n; left > 0; {
		for _, d := range rng.Perm(hi - lo + 1) {
			b := lo + d
			if b > left {
				b = left
			}
			if b > 0 {
				out = append(out, b)
				left -= b
			}
		}
	}
	return out
}

// taskJob is one task-based job of the two_sched trace.
type taskJob struct {
	id  string
	req taskched.TaskRequest
}

// taskRounds generates the two_sched task stream: per 500 ms round, the
// jobs arriving in it. Job sizes come from a fixed ladder (mostly small,
// a few large — the Google-trace skew workload.GoogleTrace models,
// without its unbounded tail) visited in seeded order, durations from a
// seeded exponential.
func taskRounds(rng *rand.Rand, rounds int) [][]taskJob {
	ladder := []int{1, 1, 2, 2, 3, 4, 6, 8, 12, 20, 30, 45} // 134 tasks per 12 jobs
	out := make([][]taskJob, rounds)
	seq := 0
	for r := range out {
		for _, k := range rng.Perm(len(ladder)) {
			dur := time.Duration((0.2 + rng.ExpFloat64()) * float64(2*time.Second))
			if dur > 10*time.Second {
				dur = 10 * time.Second
			}
			out[r] = append(out[r], taskJob{
				id:  fmt.Sprintf("job-%06d", seq),
				req: taskched.TaskRequest{Count: ladder[k], Demand: resource.DefaultProfile, Duration: dur},
			})
			seq++
		}
	}
	return out
}
