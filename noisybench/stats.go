package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile. A
// percentile with fewer is a reading of the few slowest samples, not of
// the distribution, so it is not reported.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether at least minBeyond samples lie above it.
func percentile(xs []float64, q float64) (float64, bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	idx = max(0, min(idx, len(s)-1))
	return s[idx], len(s)-1-idx >= minBeyond
}

// median returns the middle of xs, averaging the two middle samples of an
// even count; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// latencyMetrics reports the median of xs (milliseconds) and, with tail,
// the highest of p99, p95 and p90 that has minBeyond samples above it,
// as <prefix>_p<q>_ms. A percentile without enough samples is left out.
func latencyMetrics(prefix string, xs []float64, tail bool) []metric {
	var out []metric
	if v, ok := percentile(xs, 0.50); ok {
		out = append(out, metric{Name: prefix + "_p50_ms", Value: v, Unit: "ms", Samples: len(xs)})
	}
	if !tail {
		return out
	}
	for _, q := range []int{99, 95, 90} {
		if v, ok := percentile(xs, float64(q)/100); ok {
			return append(out, metric{Name: fmt.Sprintf("%s_p%d_ms", prefix, q), Value: v, Unit: "ms", Samples: len(xs)})
		}
	}
	return out
}
