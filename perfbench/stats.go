package main

import "sort"

// tailBeyond is how many samples must lie beyond a reported tail
// percentile; fewer would make the "tail" the luck of one or two outliers.
const tailBeyond = 10

// quantile is a distribution summary: the value, the percentile it sits
// at, and the sample count it was taken from.
type quantile struct {
	value float64
	pct   float64
	n     int
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the nearest-rank 50th percentile (0 for no samples).
func median(xs []float64) quantile {
	s := sorted(xs)
	if len(s) == 0 {
		return quantile{pct: 50}
	}
	return quantile{value: s[(len(s)+1)/2-1], pct: 50, n: len(s)}
}

// tail is the highest nearest-rank percentile with at least tailBeyond
// samples beyond it: rank n−10, so p = 100(n−10)/n. Below 2×tailBeyond
// samples that rank falls under the median, and there is no tail to
// report, so it returns the median instead.
func tail(xs []float64) quantile {
	n := len(xs)
	if n < 2*tailBeyond {
		return median(xs)
	}
	s := sorted(xs)
	rank := n - tailBeyond
	return quantile{value: s[rank-1], pct: 100 * float64(rank) / float64(n), n: n}
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when b is 0 (a count over an empty base).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ms converts nanoseconds to milliseconds.
func ms(ns int64) float64 { return float64(ns) / 1e6 }
