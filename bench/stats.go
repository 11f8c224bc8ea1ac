package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile for
// it to be trusted (choosing-metrics §1).
const minBeyond = 10

// tailLadder is the descending list of percentiles a tail latency may fall
// back to when the sample is too small for the one asked for.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 80, 50}

// tailPercentile applies the rule "report the highest percentile that still
// has ten samples beyond it": it returns want when a sample of n supports
// it, otherwise the highest ladder entry below want that n supports, and
// ok=false to mark the run as too short for the metric's name.
func tailPercentile(n int, want float64) (p float64, ok bool) {
	supports := func(p float64) bool {
		// Nearest-rank: ceil(p/100·n) samples lie at or below the value.
		return n-int(math.Ceil(p/100*float64(n))) >= minBeyond
	}
	if supports(want) {
		return want, true
	}
	for _, p := range tailLadder {
		if p < want && supports(p) {
			return p, false
		}
	}
	return 50, false
}

// percentile returns the p-th percentile of xs by nearest rank (the rule
// internal/metrics uses), 0 for an empty sample. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	idx := int(math.Ceil(p/100*float64(len(xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(xs) {
		idx = len(xs) - 1
	}
	return xs[idx]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, 0 when b is 0: per-op ratios over an empty window read 0
// instead of NaN, which JSON cannot carry.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
