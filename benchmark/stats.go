package main

import (
	"time"

	"medea/internal/metrics"
)

// percentile is metrics.Percentile (linear interpolation between closest
// ranks), except that nothing measured reads as 0: the result line is
// JSON and cannot carry a NaN.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	return metrics.Percentile(vals, p)
}

func median(vals []float64) float64 { return percentile(vals, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func msAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func usAll(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}
