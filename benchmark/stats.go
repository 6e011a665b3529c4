package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before
// it is reported: with fewer, the value is one or two outliers, not a
// property of the distribution.
const minBeyond = 10

// tailPercentile returns the nearest-rank p-th percentile (0 < p ≤ 1)
// of an ascending slice under the "ten samples beyond" rule: ok is
// false when fewer than minBeyond samples lie above the percentile's
// rank.
func tailPercentile(sorted []float64, p float64) (v float64, ok bool) {
	if len(sorted) == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if len(sorted)-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because
// that is what the acceptance driver computes spreads with. With fewer
// than two values both quartiles are the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

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

// ratio is a/b, 0 when b is 0 (a per-layer metric that does not apply
// to a workload reads 0, never NaN).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
