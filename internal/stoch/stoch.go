// Package stoch models the stochastic task weights of the paper
// (§III-A): the number of instructions of a task follows a Gaussian
// law with mean w̄ and standard deviation σ. Schedulers never see the
// realized weight; they plan with the conservative estimate w̄ + σ
// (§IV-A), while the simulator samples realizations at execution time.
//
// Truncation and who sees which moments: Sample rejects draws below
// MinWeightFraction·Mean, so the distribution actually executed is a
// left-truncated Gaussian whose true mean and variance differ from the
// nominal (Mean, Sigma) — at σ/w̄ = 1.0 the realized mean is ≈ 29%
// above w̄. This split is deliberate:
//
//   - Planners keep using the untruncated parameters: Conservative()
//     returns w̄ + σ exactly as the paper specifies (§IV-A), and the
//     planning-side bias is part of the reproduced methodology.
//   - Estimators of *realized* outcomes (internal/est, or anything
//     comparing against Monte Carlo) must use TruncatedMoments(), the
//     exact moments of the distribution Sample draws from; using
//     (Mean, Sigma²) instead introduces a bias that grows with σ/w̄
//     across the paper's grid {0.25 … 1.00}.
package stoch

import (
	"fmt"
	"math"

	"budgetwf/internal/rng"
)

// Dist describes the weight distribution of a single task.
type Dist struct {
	// Mean is the expected number of instructions (w̄ in the paper).
	Mean float64
	// Sigma is the standard deviation of the number of instructions.
	Sigma float64
}

// Validate reports whether the distribution parameters are usable.
func (d Dist) Validate() error {
	if math.IsNaN(d.Mean) || math.IsInf(d.Mean, 0) || d.Mean <= 0 {
		return fmt.Errorf("stoch: mean must be positive and finite, got %v", d.Mean)
	}
	if math.IsNaN(d.Sigma) || math.IsInf(d.Sigma, 0) || d.Sigma < 0 {
		return fmt.Errorf("stoch: sigma must be non-negative and finite, got %v", d.Sigma)
	}
	return nil
}

// Conservative returns the planning weight w̄ + σ used by the
// budget-aware algorithms to keep the risk of under-estimation low
// while staying accurate for most executions (§IV-A).
func (d Dist) Conservative() float64 { return d.Mean + d.Sigma }

// MinWeightFraction bounds sampled weights away from zero: a realized
// weight is never smaller than this fraction of the mean. A Gaussian
// has unbounded support, and a non-positive instruction count is
// meaningless, so the sampler redraws (truncates) below this floor.
// The paper evaluates σ up to 100% of the mean, where roughly 16% of
// an untruncated Gaussian's mass would be non-positive; truncation is
// therefore a required, if implicit, part of the model.
const MinWeightFraction = 0.01

// Sample draws one realized weight from the distribution, truncated
// below at MinWeightFraction·Mean. With Sigma == 0 it returns Mean
// exactly, which makes deterministic replay trivial.
func (d Dist) Sample(r *rng.RNG) float64 {
	if d.Sigma == 0 {
		return d.Mean
	}
	floor := d.Mean * MinWeightFraction
	for i := 0; i < 1024; i++ {
		w := d.Mean + d.Sigma*r.NormFloat64()
		if w >= floor {
			return w
		}
	}
	// Pathological parameters (sigma orders of magnitude above the
	// mean) could in principle starve the rejection loop; fall back to
	// the floor rather than looping forever.
	return floor
}

// TruncatedMoments returns the exact mean and variance of the
// left-truncated Gaussian that Sample actually draws from: a normal
// with parameters (Mean, Sigma) conditioned on exceeding the floor
// MinWeightFraction·Mean. With Sigma == 0 it returns (Mean, 0).
//
// Writing α = (floor − μ)/σ and λ = φ(α)/(1 − Φ(α)) (the inverse
// Mills ratio), the truncated moments are
//
//	E[W | W ≥ floor]   = μ + σ·λ
//	Var[W | W ≥ floor] = σ²·(1 + α·λ − λ²)
//
// Both exceed/undershoot the nominal parameters increasingly as σ/μ
// grows; TestTruncationBias pins the deviation at σ/w̄ = 1.0.
func (d Dist) TruncatedMoments() (mean, variance float64) {
	if d.Sigma == 0 {
		return d.Mean, 0
	}
	floor := d.Mean * MinWeightFraction
	alpha := (floor - d.Mean) / d.Sigma
	lambda := normPDF(alpha) / (1 - normCDF(alpha))
	mean = d.Mean + d.Sigma*lambda
	variance = d.Sigma * d.Sigma * (1 + alpha*lambda - lambda*lambda)
	if variance < 0 {
		variance = 0 // numeric noise for extreme α; the exact value is tiny
	}
	return mean, variance
}

// TruncatedSkewness returns the skewness (standardized third central
// moment) of the left-truncated Gaussian that Sample draws from. It is
// scale-invariant, so a weight divided by a VM speed keeps it. With
// the raw-moment recursion M_k = α^{k−1}·λ + (k−1)·M_{k−2} of the
// standardized truncated normal, the third central moment is
//
//	m₃ = λ·(2λ² − 3αλ + α² − 1),  skew = m₃ / m₂^{3/2}
//
// Left truncation always skews right: the value is ≈0.59 at the top
// of the paper's grid (σ/w̄ = 1.0) and vanishes as σ/w̄ → 0.
func (d Dist) TruncatedSkewness() float64 {
	if d.Sigma == 0 {
		return 0
	}
	floor := d.Mean * MinWeightFraction
	alpha := (floor - d.Mean) / d.Sigma
	lambda := normPDF(alpha) / (1 - normCDF(alpha))
	m2 := 1 + alpha*lambda - lambda*lambda
	if m2 <= 0 {
		return 0
	}
	m3 := lambda * (2*lambda*lambda - 3*alpha*lambda + alpha*alpha - 1)
	return m3 / math.Pow(m2, 1.5)
}

// normPDF is the standard normal density φ.
func normPDF(x float64) float64 {
	return math.Exp(-x*x/2) / math.Sqrt(2*math.Pi)
}

// normCDF is the standard normal distribution function Φ.
func normCDF(x float64) float64 {
	return 0.5 * (1 + math.Erf(x/math.Sqrt2))
}

// SampleN draws n independent realizations.
func (d Dist) SampleN(r *rng.RNG, n int) []float64 {
	return d.SampleNInto(r, make([]float64, n))
}

// SampleNInto fills out with len(out) independent realizations and
// returns it. Replication loops use it to reuse one buffer instead of
// allocating per batch.
func (d Dist) SampleNInto(r *rng.RNG, out []float64) []float64 {
	for i := range out {
		out[i] = d.Sample(r)
	}
	return out
}

// WithSigmaRatio returns a copy of the distribution whose sigma is the
// given fraction of the mean. The paper instantiates each workflow
// with σ/w̄ ∈ {0.25, 0.50, 0.75, 1.00} (§V-A).
func (d Dist) WithSigmaRatio(ratio float64) Dist {
	return Dist{Mean: d.Mean, Sigma: d.Mean * ratio}
}

// Outliers augments a Gaussian weight model with rare pathological
// realizations: with probability Prob a sampled weight is multiplied
// by Factor. A Gaussian's tails are thin — conditioned on exceeding
// w̄+2σ, the expected excess is only ≈0.4σ — so a rational monitor
// almost never profits from interrupting a Gaussian task. The "very
// long durations" the paper's future-work section targets (§VI) are
// un-modeled events such as data-dependent algorithmic blow-ups, which
// this wrapper represents. Used by the online-rescheduling extension.
type Outliers struct {
	// Prob is the per-task probability of a pathological realization.
	Prob float64
	// Factor multiplies the sampled weight when the outlier fires
	// (must be > 1 to be meaningful).
	Factor float64
}

// OutlierStreamLabel derives the dedicated outlier-decision stream
// from a weight stream: decisions := weights.Split(OutlierStreamLabel).
// Callers that loop over tasks split once and pass both streams to
// Sample.
const OutlierStreamLabel = 0x6f75746c69657273 // "outliers"

// Sample draws a weight from d using the weight stream, subject to the
// outlier model whose fire/no-fire decisions come from the separate
// decisions stream.
//
// Keeping the two streams apart is what preserves common-random-number
// pairing: the weight stream consumes exactly the draws Dist.Sample
// consumes, whatever Prob is, so an Outliers{Prob: 0} run reproduces a
// plain Dist.Sample run draw for draw, and runs at different Prob
// values realize identical weights and differ only in which tasks the
// outlier multiplier hits. A previous version drew the decision
// uniform from the weight stream whenever Prob > 0 — one extra draw
// per task even when the outlier did not fire — which desynchronized
// the weight stream between paired runs (TestOutlierStreamAlignment
// pins the fix).
func (o Outliers) Sample(d Dist, weights, decisions *rng.RNG) float64 {
	w := d.Sample(weights)
	if o.Prob > 0 && decisions.Float64() < o.Prob {
		w *= o.Factor
	}
	return w
}
