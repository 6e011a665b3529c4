package stoch

import (
	"math"
	"testing"
	"testing/quick"

	"budgetwf/internal/rng"
)

func TestValidate(t *testing.T) {
	cases := []struct {
		d  Dist
		ok bool
	}{
		{Dist{Mean: 1, Sigma: 0}, true},
		{Dist{Mean: 1e12, Sigma: 1e12}, true},
		{Dist{Mean: 0, Sigma: 0}, false},
		{Dist{Mean: -1, Sigma: 0}, false},
		{Dist{Mean: 1, Sigma: -0.1}, false},
		{Dist{Mean: math.NaN(), Sigma: 0}, false},
		{Dist{Mean: 1, Sigma: math.Inf(1)}, false},
		{Dist{Mean: math.Inf(1), Sigma: 0}, false},
	}
	for _, c := range cases {
		if err := c.d.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate(%+v) error=%v, want ok=%v", c.d, err, c.ok)
		}
	}
}

func TestConservative(t *testing.T) {
	d := Dist{Mean: 100, Sigma: 25}
	if d.Conservative() != 125 {
		t.Errorf("conservative = %v", d.Conservative())
	}
}

func TestSampleDeterministicWhenSigmaZero(t *testing.T) {
	d := Dist{Mean: 42}
	r := rng.New(1)
	for i := 0; i < 10; i++ {
		if s := d.Sample(r); s != 42 {
			t.Fatalf("σ=0 sample = %v", s)
		}
	}
}

func TestSampleMoments(t *testing.T) {
	d := Dist{Mean: 1000, Sigma: 100}
	r := rng.New(7)
	const n = 100000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := d.Sample(r)
		sum += x
		sumSq += x * x
	}
	mean := sum / n
	sd := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean-1000) > 2 {
		t.Errorf("sample mean %v", mean)
	}
	if math.Abs(sd-100) > 2 {
		t.Errorf("sample stddev %v", sd)
	}
}

func TestSampleTruncation(t *testing.T) {
	// σ = 10×mean: without truncation most draws would be negative.
	d := Dist{Mean: 10, Sigma: 100}
	r := rng.New(9)
	floor := d.Mean * MinWeightFraction
	for i := 0; i < 10000; i++ {
		if x := d.Sample(r); x < floor {
			t.Fatalf("sample %v below floor %v", x, floor)
		}
	}
}

func TestSampleN(t *testing.T) {
	d := Dist{Mean: 5, Sigma: 1}
	xs := d.SampleN(rng.New(3), 17)
	if len(xs) != 17 {
		t.Fatalf("SampleN returned %d values", len(xs))
	}
}

func TestWithSigmaRatio(t *testing.T) {
	d := Dist{Mean: 200, Sigma: 999}
	for _, ratio := range []float64{0, 0.25, 0.5, 1.0} {
		got := d.WithSigmaRatio(ratio)
		if got.Mean != 200 || got.Sigma != 200*ratio {
			t.Errorf("WithSigmaRatio(%v) = %+v", ratio, got)
		}
	}
}

// TestTruncationBias is the regression test for the truncation-bias
// fix: at σ/w̄ = 1.0 the floor at MinWeightFraction·Mean cuts ≈16% of
// the Gaussian's mass, so the distribution Sample actually draws from
// has a mean well above the nominal Mean. An estimator using the
// untruncated (Mean, Sigma²) — what the pre-fix code offered — is off
// by ≈29% here; TruncatedMoments() must match the empirical moments.
func TestTruncationBias(t *testing.T) {
	d := Dist{Mean: 1000, Sigma: 1000} // σ/w̄ = 1.0, the top of the paper's grid
	r := rng.New(21)
	const n = 400000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := d.Sample(r)
		sum += x
		sumSq += x * x
	}
	empMean := sum / n
	empVar := sumSq/n - empMean*empMean

	// The bias is real: the realized mean clearly exceeds the nominal
	// parameter. (With untruncated moments this margin is what an
	// analytic estimator silently drops.)
	if empMean <= d.Mean*1.2 {
		t.Fatalf("empirical mean %.1f does not show the truncation bias above Mean=%v", empMean, d.Mean)
	}

	mean, variance := d.TruncatedMoments()
	// Analytic reference: α = (floor−μ)/σ = -0.99, λ = φ(α)/(1−Φ(α)).
	if relErr := math.Abs(empMean-mean) / mean; relErr > 0.005 {
		t.Errorf("TruncatedMoments mean %.2f vs empirical %.2f (rel err %.4f)", mean, empMean, relErr)
	}
	if relErr := math.Abs(empVar-variance) / variance; relErr > 0.02 {
		t.Errorf("TruncatedMoments variance %.1f vs empirical %.1f (rel err %.4f)", variance, empVar, relErr)
	}
	// The untruncated parameters must NOT match — this is the assertion
	// that fails against the pre-fix package, where (Mean, Sigma²) was
	// the only moment pair available.
	if math.Abs(empMean-d.Mean)/d.Mean < 0.05 {
		t.Errorf("empirical mean %.2f unexpectedly matches untruncated Mean %v", empMean, d.Mean)
	}
	if math.Abs(empVar-d.Sigma*d.Sigma)/(d.Sigma*d.Sigma) < 0.05 {
		t.Errorf("empirical variance %.1f unexpectedly matches untruncated Sigma² %v", empVar, d.Sigma*d.Sigma)
	}
}

// TestTruncatedMomentsSigmaZero: the degenerate distribution is its own
// truncation.
func TestTruncatedMomentsSigmaZero(t *testing.T) {
	mean, variance := Dist{Mean: 42}.TruncatedMoments()
	if mean != 42 || variance != 0 {
		t.Fatalf("TruncatedMoments(σ=0) = (%v, %v)", mean, variance)
	}
}

// TestTruncatedMomentsSmallSigma: with σ/w̄ = 0.25 the floor is ~4
// standard deviations below the mean, so the truncated moments are
// numerically indistinguishable from the nominal parameters.
func TestTruncatedMomentsSmallSigma(t *testing.T) {
	d := Dist{Mean: 1000, Sigma: 250}
	mean, variance := d.TruncatedMoments()
	if math.Abs(mean-d.Mean)/d.Mean > 1e-3 {
		t.Errorf("mean %v strays from %v at σ/w̄=0.25", mean, d.Mean)
	}
	if math.Abs(variance-d.Sigma*d.Sigma)/(d.Sigma*d.Sigma) > 1e-2 {
		t.Errorf("variance %v strays from %v at σ/w̄=0.25", variance, d.Sigma*d.Sigma)
	}
	if mean <= d.Mean {
		t.Errorf("truncated mean %v must still exceed nominal %v", mean, d.Mean)
	}
}

// TestOutlierStreamAlignment pins the CRN contract of Outliers.Sample:
// the weight stream consumes exactly what plain Dist.Sample consumes,
// so Outliers{Prob: 0} reproduces the unwrapped stream draw for draw,
// and changing Prob changes which draws are scaled — never the draws
// themselves.
func TestOutlierStreamAlignment(t *testing.T) {
	d := Dist{Mean: 100, Sigma: 50}
	const n = 2000

	plain := make([]float64, n)
	r := rng.New(5)
	for i := range plain {
		plain[i] = d.Sample(r)
	}

	sample := func(o Outliers) []float64 {
		weights := rng.New(5)
		decisions := weights.Split(OutlierStreamLabel)
		out := make([]float64, n)
		for i := range out {
			out[i] = o.Sample(d, weights, decisions)
		}
		return out
	}

	zero := sample(Outliers{Prob: 0, Factor: 10})
	for i := range zero {
		if zero[i] != plain[i] {
			t.Fatalf("draw %d: Outliers{Prob:0} %v != plain %v", i, zero[i], plain[i])
		}
	}

	hot := sample(Outliers{Prob: 0.1, Factor: 10})
	fired := 0
	for i := range hot {
		switch hot[i] {
		case plain[i]:
		case plain[i] * 10:
			fired++
		default:
			t.Fatalf("draw %d: %v is neither the paired weight %v nor 10× it", i, hot[i], plain[i])
		}
	}
	if fired == 0 || fired == n {
		t.Fatalf("outlier fired %d/%d times; expected a nontrivial fraction near 10%%", fired, n)
	}
}

// Property: samples are always at least the truncation floor, for any
// valid (mean, sigma) pair.
func TestSampleFloorProperty(t *testing.T) {
	r := rng.New(13)
	f := func(meanRaw, sigmaRaw float64) bool {
		mean := math.Abs(meanRaw)
		if mean == 0 || math.IsNaN(mean) || math.IsInf(mean, 0) || mean > 1e15 {
			return true
		}
		sigma := math.Abs(sigmaRaw)
		if math.IsNaN(sigma) || math.IsInf(sigma, 0) || sigma > 1e15 {
			return true
		}
		d := Dist{Mean: mean, Sigma: sigma}
		for i := 0; i < 32; i++ {
			if d.Sample(r) < mean*MinWeightFraction {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
