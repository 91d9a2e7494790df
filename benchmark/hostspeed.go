package main

import "time"

// The guest this benchmark was defined on slows down and speeds up by a
// third over minutes — whatever it runs, with no steal time reported and
// with dependent integer arithmetic unaffected: whoever shares its
// physical cores and caches comes and goes. Ten runs of unchanged code
// that straddle two such spells spread 30–45% on every timing, beyond
// any bound a gate could use. So each ~100 ms block of the measured
// phase starts with a reference kernel of fixed work, and the end-to-end
// timings are reported as they would be on the host at its reference
// speed: time × refNominal ÷ the kernel's median time in the same run
// (README, Noise hygiene, has the evidence and the limits).

// refWords is the kernel's working set: two float64 arrays of 256 KB,
// beyond the first-level cache and within the second.
const refWords = 1 << 15

// refNominal is the kernel's time on the defining host with nothing
// else on its cores; it only fixes the scale of the reported timings.
const refNominal = 815 * time.Microsecond

var (
	refA, refB = refInit()
	refSink    float64
)

func refInit() (a, b []float64) {
	a, b = make([]float64, refWords), make([]float64, refWords)
	for i := range a {
		a[i], b[i] = float64(i), 1/float64(i+1)
	}
	return a, b
}

// refKernel does a fixed amount of work and returns how long it took:
// a chain of dependent integer operations, which a busy neighbour does
// not slow, and twelve passes of a streaming multiply-add, which it
// slows as much as anything the program does. The mix (a quarter to
// three quarters on a quiet host) puts the kernel's sensitivity between
// that of ilp_steady (0.6 of the streaming part's) and svc_durable (1.3).
func refKernel() time.Duration {
	t0 := time.Now()
	x := uint64(2463534242)
	for i := 0; i < 90_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	s := float64(x & 1)
	for pass := 0; pass < 12; pass++ {
		for i := range refA {
			refA[i] = refA[i]*0.999 + refB[i]
			s += refA[i]
		}
	}
	refSink = s
	return time.Since(t0)
}

// slowdown is how much slower than its reference speed the host ran,
// judged by the given kernel times (1 = at reference speed, and where
// there are no kernel times).
func slowdown(ref []time.Duration) float64 {
	if len(ref) == 0 {
		return 1
	}
	return median(msAll(ref)) / ms(refNominal)
}

// blockRefs returns the kernel times the given blocks started with.
func blockRefs(blocks []*block) []time.Duration {
	out := make([]time.Duration, len(blocks))
	for i, b := range blocks {
		out[i] = b.ref
	}
	return out
}
