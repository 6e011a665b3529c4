package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.N() != 0 || a.Mean() != 0 || a.StdDev() != 0 {
		t.Fatal("zero accumulator not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		a.Add(x)
	}
	if a.N() != 8 {
		t.Errorf("N = %d", a.N())
	}
	if !almost(a.Mean(), 5, 1e-12) {
		t.Errorf("mean = %v", a.Mean())
	}
	// Sample variance of this classic dataset is 32/7.
	if !almost(a.Variance(), 32.0/7.0, 1e-12) {
		t.Errorf("variance = %v", a.Variance())
	}
	if a.Min() != 2 || a.Max() != 9 {
		t.Errorf("min/max = %v/%v", a.Min(), a.Max())
	}
}

func TestAccumulatorSingleValue(t *testing.T) {
	var a Accumulator
	a.Add(3.5)
	if a.Variance() != 0 || a.StdDev() != 0 {
		t.Error("variance of single observation must be 0")
	}
	if a.Min() != 3.5 || a.Max() != 3.5 || a.Mean() != 3.5 {
		t.Error("single-value stats wrong")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.N != 0 || s.Mean != 0 || s.Median != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}

func TestSummarizeMatchesDirectFormulas(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 100}
	s := Summarize(xs)
	if !almost(s.Mean, 22, 1e-12) {
		t.Errorf("mean %v", s.Mean)
	}
	if !almost(s.Median, 3, 1e-12) {
		t.Errorf("median %v", s.Median)
	}
	if s.Min != 1 || s.Max != 100 {
		t.Errorf("min/max %v/%v", s.Min, s.Max)
	}
	if s.N != 5 {
		t.Errorf("n %d", s.N)
	}
}

func TestPercentile(t *testing.T) {
	four := []float64{10, 20, 30, 40}
	cases := []struct {
		name    string
		xs      []float64
		p, want float64
	}{
		{"empty", nil, 50, 0},
		{"single", []float64{7}, 99, 7},
		{"min", four, 0, 10},
		{"max", four, 100, 40},
		{"clamp-low", four, -5, 10},
		{"clamp-high", four, 200, 40},
		// rank 0.5·(4−1) = 1.5: halfway between 20 and 30.
		{"median-interpolated", four, 50, 25},
		{"p25", four, 25, 17.5},
		// rank 0.9·3 = 2.7: 30 + 0.7·(40−30).
		{"p90", four, 90, 37},
		// odd length: rank 0.5·2 = 1 lands exactly on an element.
		{"median-exact", []float64{1, 2, 100}, 50, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Percentile(c.xs, c.p); !almost(got, c.want, 1e-12) {
				t.Errorf("Percentile(%v, %g) = %v, want %v", c.xs, c.p, got, c.want)
			}
		})
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("input mutated")
	}
}

func TestMeanStdDevHelpers(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if !almost(Mean([]float64{1, 2, 3}), 2, 1e-12) {
		t.Error("Mean wrong")
	}
	var acc Accumulator
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		acc.Add(x)
	}
	if !almost(acc.StdDev(), math.Sqrt(32.0/7.0), 1e-12) {
		t.Error("StdDev wrong")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(4, 2) != 2 || Ratio(1, 0) != 0 {
		t.Error("Ratio wrong")
	}
}

// Property: the online accumulator agrees with the two-pass formulas
// for arbitrary inputs.
func TestAccumulatorMatchesTwoPass(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			// quick can generate NaN/Inf through float bit patterns;
			// restrict to finite moderate values.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				continue
			}
			xs = append(xs, x)
		}
		if len(xs) < 2 {
			return true
		}
		var acc Accumulator
		mean := 0.0
		for _, x := range xs {
			acc.Add(x)
			mean += x
		}
		mean /= float64(len(xs))
		variance := 0.0
		for _, x := range xs {
			variance += (x - mean) * (x - mean)
		}
		variance /= float64(len(xs) - 1)
		scale := math.Max(1, math.Abs(mean))
		return almost(acc.Mean(), mean, 1e-6*scale) &&
			almost(acc.Variance(), variance, 1e-6*math.Max(1, variance))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: percentiles are monotone in p and bounded by min/max.
func TestPercentileMonotone(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			xs = append(xs, x)
		}
		if len(xs) == 0 {
			return true
		}
		p1 = math.Mod(math.Abs(p1), 101)
		p2 = math.Mod(math.Abs(p2), 101)
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		s := Summarize(xs)
		lo, hi := Percentile(xs, p1), Percentile(xs, p2)
		return lo <= hi && lo >= s.Min && hi <= s.Max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summary{N: 3, Mean: 1.5, StdDev: 0.5, Median: 1.4}
	got := s.String()
	if got != "1.50 ± 0.50 (median 1.40, n=3)" {
		t.Errorf("String() = %q", got)
	}
}

// TestPercentileEdgeCases pins the boundary behaviour: the extreme
// percentiles are the min/max, a single sample is every percentile,
// out-of-range p clamps, and NaN (in p or in the data) never silently
// poisons an arbitrary rank.
func TestPercentileEdgeCases(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name string
		xs   []float64
		p    float64
		want float64 // NaN means "want NaN"
	}{
		{"p0 is min", []float64{3, 1, 2}, 0, 1},
		{"p100 is max", []float64{3, 1, 2}, 100, 3},
		{"p clamped below", []float64{3, 1, 2}, -5, 1},
		{"p clamped above", []float64{3, 1, 2}, 200, 3},
		{"single sample p0", []float64{7}, 0, 7},
		{"single sample p50", []float64{7}, 50, 7},
		{"single sample p100", []float64{7}, 100, 7},
		{"empty", nil, 50, 0},
		{"NaN p", []float64{1, 2}, nan, nan},
		{"NaN element ignored", []float64{1, nan, 3}, 100, 3},
		{"all NaN", []float64{nan, nan}, 50, nan},
		{"interpolates", []float64{0, 10}, 25, 2.5},
	}
	for _, c := range cases {
		got := Percentile(c.xs, c.p)
		if math.IsNaN(c.want) {
			if !math.IsNaN(got) {
				t.Errorf("%s: Percentile = %v, want NaN", c.name, got)
			}
			continue
		}
		if got != c.want {
			t.Errorf("%s: Percentile = %v, want %v", c.name, got, c.want)
		}
	}
}
