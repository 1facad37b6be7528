package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: with fewer, the value is decided by a handful of outliers and
// does not repeat between runs.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of sorted by the
// nearest-rank rule, the number of samples strictly beyond that rank, and
// whether the sample supports it: at least minBeyond samples must lie
// beyond the rank. An unsupported percentile still returns its value so
// the caller can print it, marked.
func percentile(sorted []float64, q float64) (v float64, beyond int, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, 0, false
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	beyond = n - 1 - rank
	return sorted[rank], beyond, beyond >= minBeyond
}

// median returns the middle value of vals (mean of the two middle values for
// an even count) without reordering the caller's slice; 0 for an empty one.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sortedCopy(vals)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// spread returns (max − min) / median of vals: how far the rounds of one
// run disagree.
func spread(vals []float64) float64 {
	m := median(vals)
	if len(vals) == 0 || m == 0 {
		return 0
	}
	s := sortedCopy(vals)
	return (s[len(s)-1] - s[0]) / m
}

// quartiles returns the first quartile, the median and the third quartile
// the way Python's statistics.quantiles(vals, n=4) does (the exclusive
// method), so NOISE.md uses the same arithmetic as the acceptance check.
// Fewer than two values repeat the single value.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// Position i·(n+1)/4, 1-based; the rank is clamped to the data and
		// the interpolation weight taken after clamping, as Python does.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// ratio is a/b, 0 when b is 0 — counts with an empty base report 0 rather
// than NaN, which JSON cannot carry.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
