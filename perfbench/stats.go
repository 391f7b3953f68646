package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported
// percentile: a tail figure resting on fewer is an anecdote.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of
// sorted. It fails when fewer than minBeyond samples lie above the
// reported one, so a p99 is only ever reported from at least
// 100·(minBeyond+1) samples.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile p%g of no samples", 100*p)
	}
	k := int(math.Ceil(p*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if beyond := n - 1 - k; beyond < minBeyond && p > 0.5 {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, want ≥ %d", 100*p, n, beyond, minBeyond)
	}
	return sorted[k], nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// durationsMicros converts nanosecond samples to sorted microseconds.
func durationsMicros(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	sort.Float64s(out)
	return out
}

// p50 is the median of nanosecond samples in microseconds, or 0 for
// no samples (a layer the workload never reached).
func p50(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	v, _ := percentile(durationsMicros(ns), 0.5)
	return v
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
