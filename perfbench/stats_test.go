package main

import (
	"math/rand"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct {
		p    float64
		want float64
	}{
		{0.05, 15}, {0.30, 20}, {0.40, 20}, {0.50, 35}, {0.99, 50}, {1, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

// TestPercentileOrderedAndBounded is the property a bucket-interpolated
// quantile breaks: p50 <= p99 <= max for every sample set, including small,
// skewed and tied ones.
func TestPercentileOrderedAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(300)
		xs := make([]float64, n)
		for i := range xs {
			switch trial % 3 {
			case 0:
				xs[i] = rng.Float64() * 100
			case 1:
				xs[i] = rng.ExpFloat64() * 40 // long tail
			default:
				xs[i] = float64(rng.Intn(4)) // many ties
			}
		}
		maxv := xs[0]
		for _, x := range xs {
			if x > maxv {
				maxv = x
			}
		}
		p50, p99 := percentile(xs, 0.50), percentile(xs, 0.99)
		if !(p50 <= p99 && p99 <= maxv) {
			t.Fatalf("trial %d: p50 %v, p99 %v, max %v over %v", trial, p50, p99, maxv, xs)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}
