package main

import (
	"bytes"
	"os"
	"strconv"
	"time"
)

// Shared hosts steal CPU time from a guest in bursts that last from
// milliseconds to minutes: probes on the host this benchmark was defined
// on showed 0–60% steal and a fed_route throughput that fell with it from
// 700 to 150 LRAs/s within one run of unchanged code. Steal only ever
// slows, and it does not depend on what the program is doing, so the
// timings use only the calm blocks of the measured phase: the ~100 ms
// blocks whose steal share is at or below the lower quartile of all
// blocks' — on a quiet host every block without a stolen tick, in a
// storm the calmest quarter. Counts, allocation and quality figures
// always cover the whole phase.

// hostSteal reads the cumulative steal time of all CPUs from /proc/stat
// (8th value of the "cpu" line, in 10 ms ticks). It returns 0 where there
// is no such file or field, which turns the selection off.
func hostSteal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(string(fields[8]), 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

func (b *block) stolenShare() float64 {
	if b.elapsed <= 0 {
		return 0
	}
	return float64(b.stolen) / float64(b.elapsed)
}

// calmBlocks returns the blocks whose steal share is at or below the
// lower quartile of all blocks' steal shares.
func calmBlocks(blocks []*block) []*block {
	shares := make([]float64, len(blocks))
	for i, b := range blocks {
		shares[i] = b.stolenShare()
	}
	limit := percentile(shares, 25)
	var calm []*block
	for _, b := range blocks {
		if b.stolenShare() <= limit {
			calm = append(calm, b)
		}
	}
	return calm
}

// stolenShare is the steal time of all blocks as a share of their wall
// time.
func stolenShare(blocks []*block) float64 {
	var stolen, wall time.Duration
	for _, b := range blocks {
		stolen += b.stolen
		wall += b.elapsed
	}
	if wall <= 0 {
		return 0
	}
	return float64(stolen) / float64(wall)
}

// blockRates returns each block's throughput, units per second. The
// median of the rates is the throughput the benchmark reports, so a stall
// inside one block cannot move it.
func blockRates(blocks []*block) []float64 {
	rates := make([]float64, 0, len(blocks))
	for _, b := range blocks {
		if b.elapsed > 0 {
			rates = append(rates, float64(b.units)/b.elapsed.Seconds())
		}
	}
	return rates
}

// pooled returns the deploy latencies of all given blocks.
func pooled(blocks []*block) []time.Duration {
	var deploy []time.Duration
	for _, b := range blocks {
		deploy = append(deploy, b.deploy...)
	}
	return deploy
}
