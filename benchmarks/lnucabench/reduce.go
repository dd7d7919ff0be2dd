package main

import (
	"math"
	"sort"
	"time"
)

// fastestSum adds up, cell by cell, the fastest of the timed passes:
// passes[p][c] is the wall time of cell c in pass p. Simulated work per
// cell is bit-identical across passes and host noise only ever adds
// time, so the minimum is the estimate least disturbed by the box —
// and taking it per cell, not per pass, lets one noisy burst spoil
// only the cells it overlapped.
func fastestSum(passes [][]time.Duration) time.Duration {
	if len(passes) == 0 {
		return 0
	}
	var sum time.Duration
	for c := range passes[0] {
		best := passes[0][c]
		for _, pass := range passes[1:] {
			if pass[c] < best {
				best = pass[c]
			}
		}
		sum += best
	}
	return sum
}

// median returns the middle of xs (mean of the two middles for an even
// count), 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs, 0 for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailPercentiles are the candidates highestPercentile picks from, in
// hundredths of a percent so the sample arithmetic stays exact.
var tailPercentiles = []int{5000, 9000, 9500, 9900, 9990, 9999}

// highestPercentile picks the highest candidate percentile that still
// has at least ten of n samples beyond it — a tail figure resting on
// fewer is one outlier's value, not a percentile. It returns 0 when
// not even the median qualifies.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if n*(10000-p) >= 10*10000 {
			best = float64(p) / 100
		}
	}
	return best
}

// secondsOf converts durations to float seconds.
func secondsOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// ratio is num/den, 0 when den is 0 (an idle layer reports 0, not NaN:
// the result line must stay valid JSON).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
