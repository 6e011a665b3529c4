// Package stats provides small statistical helpers used throughout the
// experiment harness: online accumulators, summary statistics, and
// percentile computation. It deliberately covers only what the
// reproduction needs, with no external dependencies.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator computes running mean and variance using Welford's
// algorithm. The zero value is an empty accumulator ready for use.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds one observation into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	if a.n == 1 {
		a.min, a.max = x, x
	} else {
		if x < a.min {
			a.min = x
		}
		if x > a.max {
			a.max = x
		}
	}
	delta := x - a.mean
	a.mean += delta / float64(a.n)
	a.m2 += delta * (x - a.mean)
}

// N returns the number of observations folded in so far.
func (a *Accumulator) N() int { return a.n }

// Mean returns the running mean, or 0 for an empty accumulator.
func (a *Accumulator) Mean() float64 { return a.mean }

// Min returns the smallest observation, or 0 for an empty accumulator.
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation, or 0 for an empty accumulator.
func (a *Accumulator) Max() float64 { return a.max }

// Variance returns the unbiased sample variance (n-1 denominator).
// It returns 0 when fewer than two observations have been added.
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (a *Accumulator) StdDev() float64 { return math.Sqrt(a.Variance()) }

// Summary is a compact set of descriptive statistics over a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	Median float64
}

// String formats the summary in the paper's "mean ± std, median" style.
func (s Summary) String() string {
	return fmt.Sprintf("%.2f ± %.2f (median %.2f, n=%d)", s.Mean, s.StdDev, s.Median, s.N)
}

// Summarize computes descriptive statistics over xs. It returns the
// zero Summary for an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	var acc Accumulator
	for _, x := range xs {
		acc.Add(x)
	}
	return Summary{
		N:      acc.N(),
		Mean:   acc.Mean(),
		StdDev: acc.StdDev(),
		Min:    acc.Min(),
		Max:    acc.Max(),
		Median: Percentile(xs, 50),
	}
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
// The input is not modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if math.IsNaN(p) {
		return math.NaN()
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	// NaN elements are dropped rather than sorted: sort.Float64s gives
	// no ordering guarantee for NaN, and a single propagated NaN would
	// otherwise poison an arbitrary quantile. All-NaN input returns NaN.
	sorted := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			sorted = append(sorted, x)
		}
	}
	if len(sorted) == 0 {
		return math.NaN()
	}
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Ratio returns a/b, or 0 when b is 0. It is used for normalized
// reporting where a zero denominator means "no data".
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
