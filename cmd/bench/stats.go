package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail metric may report, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75}

// tailPercentile picks the highest ladder percentile, no higher than want,
// that still leaves at least ten of n samples beyond it. A tail with fewer
// samples behind it is one stall, not a distribution.
func tailPercentile(n int, want float64) float64 {
	for _, p := range tailLadder {
		if p > want {
			continue
		}
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

// beyond counts the samples strictly above the nearest-rank percentile p of
// n samples.
func beyond(n int, p float64) int {
	return n - rank(n, p)
}

// rank is the 1-based nearest-rank index of percentile p in n sorted samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile returns the nearest-rank percentile of sorted (ascending).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// median returns the middle value of v (mean of the two middle values for an
// even count) without reordering it.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartileSpread is the interquartile distance of v as a share of its median,
// with the quartiles Python's statistics.quantiles(v, n=4) returns (the
// exclusive method): the spread the acceptance check computes.
func quartileSpread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}
