package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailSamples is how many samples must lie beyond a reported percentile:
// with fewer, the "percentile" is just one outlier's wall time.
const tailSamples = 10

// tail returns the 95th percentile (nearest rank) when at least
// tailSamples samples lie beyond it — 200 samples or more — and the
// slowest sample otherwise, which is the honest tail of a short series.
func tail(xs []float64) float64 {
	n := len(xs)
	if rank := int(math.Ceil(0.95 * float64(n))); n-rank < tailSamples {
		return percentile(xs, 1)
	}
	return percentile(xs, 0.95)
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}
