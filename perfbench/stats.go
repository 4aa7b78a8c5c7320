package main

import (
	"math"
	"sort"
)

// minBeyond is the sample rule every reported percentile obeys: at least
// this many samples must lie strictly beyond it, so a tail is never read
// off a handful of values.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs and
// how many samples lie beyond it. xs need not be sorted.
func percentile(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	r := rank(len(s), p)
	return s[r-1], len(s) - r
}

// rank is the 1-based nearest-rank position of the p-quantile among n > 0
// samples.
func rank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n))), 1), n)
}

// supported reports whether n samples support the p-quantile under the
// ten-beyond rule.
func supported(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minBeyond
}

// minSamples is the smallest sample count that supports the p-quantile.
func minSamples(p float64) int {
	n := 1
	for !supported(n, p) {
		n++
	}
	return n
}

// median of xs (0 for none).
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

// geomean of positive values (0 for none).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// frac is a/b, 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
