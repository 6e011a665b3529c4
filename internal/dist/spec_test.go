package dist

import (
	"errors"
	"testing"

	"budgetwf/internal/fault"
	"budgetwf/internal/platform"
	"budgetwf/internal/reqerr"
)

// contendedPlatform is a valid platform with fluid bandwidth sharing
// enabled — the one regime the analytic estimator refuses.
func contendedPlatform() *platform.Platform {
	p := platform.Default()
	p.DCBandwidth = 1e9
	return p
}

// TestSpecValidateSemantics: scalar-domain violations carry
// Semantic=false (the HTTP layer's 400s), semantic ones Semantic=true
// (422s).
func TestSpecValidateSemantics(t *testing.T) {
	cases := []struct {
		name     string
		spec     JobSpec
		semantic bool
	}{
		{"gridK over cap", JobSpec{Kind: KindSweep, Sweep: &SweepSpec{WorkflowType: "chain", N: 6, GridK: MaxGridK + 1}}, false},
		{"replications over cap", JobSpec{Kind: KindSweep, Sweep: &SweepSpec{WorkflowType: "chain", N: 6, Replications: MaxReplications + 1}}, false},
		{"unknown workflow type", JobSpec{Kind: KindSweep, Sweep: &SweepSpec{WorkflowType: "escher", N: 6}}, true},
		{"unknown algorithm", JobSpec{Kind: KindSweep, Sweep: &SweepSpec{WorkflowType: "chain", N: 6, Algorithms: []string{"nope"}}}, true},
		{"generator constraint", JobSpec{Kind: KindSweep, Sweep: &SweepSpec{WorkflowType: "montage", N: 5}}, true},
		{"unknown figure", JobSpec{Kind: KindFigure, Figure: &FigureSpec{Figure: 9}}, true},
		{"unknown estimator", JobSpec{Kind: KindSweep, Sweep: &SweepSpec{WorkflowType: "chain", N: 6, Estimator: "montecarlo"}}, false},
		{"unknown figure estimator", JobSpec{Kind: KindFigure, Figure: &FigureSpec{Figure: 1, Estimator: "montecarlo"}}, false},
		{"analytic with contention", JobSpec{Kind: KindSweep, Sweep: &SweepSpec{
			WorkflowType: "chain", N: 6, Estimator: "analytic", Platform: contendedPlatform(),
		}}, true},
		{"fault template field", JobSpec{Kind: KindFaultSweep, FaultSweep: &FaultSweepSpec{
			WorkflowType: "chain", N: 6, Faults: &fault.Spec{BootFailProb: 1},
		}}, false},
		{"figure below the Montage minimum", JobSpec{Kind: KindFigure, Figure: &FigureSpec{Figure: 1, N: 11}}, false},
	}
	for _, tc := range cases {
		spec := tc.spec
		spec.Normalize()
		err := spec.Validate()
		if err == nil {
			t.Errorf("%s: Validate() = nil, want error", tc.name)
			continue
		}
		var fe *reqerr.Error
		if !errors.As(err, &fe) {
			t.Errorf("%s: error %v is not a *reqerr.Error", tc.name, err)
			continue
		}
		if fe.Semantic != tc.semantic {
			t.Errorf("%s: Semantic = %v, want %v (%v)", tc.name, fe.Semantic, tc.semantic, err)
		}
	}

	// Every ceiling is inclusive.
	atCeilings := JobSpec{Kind: KindSweep, Sweep: &SweepSpec{
		WorkflowType: "chain", N: MaxTasks, SigmaRatio: MaxSigmaRatio, Algorithms: []string{"heft"},
		GridK: MaxGridK, Instances: MaxInstances, Replications: MaxReplications,
	}}
	atCeilings.Normalize()
	if err := atCeilings.Validate(); err != nil {
		t.Errorf("a spec at its ceilings: %v", err)
	}

	// Envelope violations.
	if err := (&JobSpec{Kind: "nope"}).Validate(); err == nil {
		t.Error("unknown kind validated")
	}
	if err := (&JobSpec{Kind: KindSweep}).Validate(); err == nil {
		t.Error("missing payload validated")
	}
}

// TestSpecHashNormalization: the canonical hash identifies the
// campaign — defaults spelled out and defaults left blank hash alike
// after normalization, distinct campaigns differently.
func TestSpecHashNormalization(t *testing.T) {
	implicit := JobSpec{Kind: KindSweep, Sweep: &SweepSpec{WorkflowType: "chain", N: 6}}
	implicit.Normalize()
	explicit := JobSpec{Kind: KindSweep, Sweep: &SweepSpec{
		WorkflowType: "chain", N: 6, SigmaRatio: 0.5, GridK: 8, Instances: 5, Replications: 25,
	}}
	explicit.Normalize()
	if implicit.Hash() != explicit.Hash() {
		t.Error("normalized defaults hash differently from explicit defaults")
	}
	other := JobSpec{Kind: KindSweep, Sweep: &SweepSpec{WorkflowType: "chain", N: 7}}
	other.Normalize()
	if other.Hash() == implicit.Hash() {
		t.Error("distinct campaigns share a hash")
	}
	// Estimator participates in the campaign's identity: the default
	// "mc" (implicit or explicit) and "analytic" are distinct jobs.
	mc := JobSpec{Kind: KindSweep, Sweep: &SweepSpec{WorkflowType: "chain", N: 6, Estimator: "mc"}}
	mc.Normalize()
	if mc.Hash() != implicit.Hash() {
		t.Error("explicit estimator=mc hashes differently from the default")
	}
	analytic := JobSpec{Kind: KindSweep, Sweep: &SweepSpec{WorkflowType: "chain", N: 6, Estimator: "analytic"}}
	analytic.Normalize()
	if analytic.Hash() == implicit.Hash() {
		t.Error("estimator=analytic shares a hash with estimator=mc")
	}
	// A fault sweep's rate grid is identified by what runs: sorted, with
	// the λ = 0 anchor exp.FaultScenario.Normalize would prepend anyway.
	hashOf := func(rates ...float64) string {
		j := JobSpec{Kind: KindFaultSweep, FaultSweep: &FaultSweepSpec{WorkflowType: "chain", N: 6, Rates: rates}}
		j.Normalize()
		if err := j.Validate(); err != nil {
			t.Fatalf("rates %v: %v", rates, err)
		}
		return j.Hash()
	}
	if hashOf(0.1) != hashOf(0, 0.1) || hashOf(0.5, 0.1) != hashOf(0, 0.1, 0.5) {
		t.Error("spellings of one rate grid hash differently")
	}
	if hashOf() != hashOf(0, 0.01, 0.1, 0.5) {
		t.Error("the default rate grid hashes differently from its explicit spelling")
	}
	if hashOf(0.1) == hashOf(0.2) {
		t.Error("distinct rate grids share a hash")
	}
	// MaxRates counts the anchor: 64 non-zero rates run as 65.
	full := make([]float64, MaxRates)
	for i := range full {
		full[i] = float64(i + 1)
	}
	over := JobSpec{Kind: KindFaultSweep, FaultSweep: &FaultSweepSpec{WorkflowType: "chain", N: 6, Rates: full}}
	over.Normalize()
	var re *reqerr.Error
	if err := over.Validate(); !errors.As(err, &re) || re.Field != "faultSweep.rates" || re.Semantic {
		t.Errorf("%d rates plus the anchor: got %v, want a scalar-domain error on faultSweep.rates", MaxRates, err)
	}
	hashOf(full[1:]...) // MaxRates with the anchor: hashOf fails the test if it does not validate
}

// TestSpecHashPinned pins the hash of one literal, already normalized
// spec per kind to the value PR 17 (b493468) produced. Journals, job ids
// and job-… trace ids are derived from it, so a refactor of the spec
// types that reorders or renames a field fails here before it orphans
// a journal.
func TestSpecHashPinned(t *testing.T) {
	cases := []struct {
		spec JobSpec
		want string
	}{
		{JobSpec{Kind: KindSweep, Sweep: &SweepSpec{
			WorkflowType: "montage", N: 30, SigmaRatio: 0.5,
			Algorithms: []string{"heft", "heftbudg"}, GridK: 8, Instances: 5, Replications: 25,
			Seed: 42, Estimator: "mc",
		}}, "940b913ccb6ece11d37246d4787290418a306101cf94956230bc7116a2b93308"},
		{JobSpec{Kind: KindFigure, Figure: &FigureSpec{
			Figure: 3, N: 90, SigmaRatio: 0.5, GridK: 8, Instances: 5, Replications: 25, Seed: 7, Estimator: "analytic",
		}}, "2da3611e0bc80df25527f56e9ba9c52d21555623b503a061b5ff3744e7c465af"},
		{JobSpec{Kind: KindFaultSweep, FaultSweep: &FaultSweepSpec{
			WorkflowType: "ligo", N: 30, SigmaRatio: 0.5, Algorithm: "heftbudg", BudgetFactor: 1.5,
			Rates: []float64{0, 0.01, 0.1, 0.5}, Instances: 5, Replications: 25, Seed: 3,
		}}, "50fa75725f6167cb1a9d7ab36c0a532f52275af64850719ca2721ff7713e5318"},
	}
	for _, tc := range cases {
		if got := tc.spec.Hash(); got != tc.want {
			t.Errorf("%s: hash %s, want %s", tc.spec.Kind, got, tc.want)
		}
		tc.spec.Normalize()
		if err := tc.spec.Validate(); err != nil {
			t.Errorf("%s: %v", tc.spec.Kind, err)
		}
		if got := tc.spec.Hash(); got != tc.want {
			t.Errorf("%s: Normalize changed the hash of a normalized spec to %s", tc.spec.Kind, got)
		}
	}
}
