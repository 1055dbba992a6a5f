package main

import (
	"math"
	"sort"
)

// Percentiles are computed exactly from the sorted samples, never from
// histogram buckets: a bucket-interpolated quantile can land above the
// largest sample it summarizes.

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the nearest-rank p-quantile of xs (0 < p <= 1): the
// smallest sample v such that at least a fraction p of the samples are <= v.
// Every result is a sample, so percentile is monotone in p and never exceeds
// the maximum. It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median returns the middle sample of xs, or the mean of the two middle
// samples when their number is even. It returns 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
