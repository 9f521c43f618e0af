package main

import (
	"math"
	"sort"
)

// tailLadder is the percentile ladder the stall metrics pick from, highest
// first.
var tailLadder = []float64{0.999, 0.99, 0.9, 0.5}

// pickTail returns the highest ladder percentile that still has at least ten
// of the n samples beyond it, so the reported tail is never one or two
// outliers. Below 20 samples it degrades to the median.
func pickTail(n int) float64 {
	for _, p := range tailLadder {
		if n-rankOf(n, p) >= 10 {
			return p
		}
	}
	return 0.5
}

// rankOf is the 1-based nearest-rank position of percentile p among n sorted
// samples.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile returns the nearest-rank percentile p of sorted (ascending)
// samples, 0 when there are none.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), p)-1]
}

// sortedCopy returns xs sorted ascending without disturbing xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value (mean of the middle two for even counts).
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

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

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// ratio is a/b with 0 for an empty base, so count ratios on workloads that
// never touch a layer read 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// nsToUs converts nanosecond samples held as uint32 to float microseconds.
func nsToUs(ns []uint32) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}
