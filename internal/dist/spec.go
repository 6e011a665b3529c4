// Package dist is the distributed execution subsystem: asynchronous
// jobs over the experiment campaigns (budget sweeps, fault sweeps,
// whole figure reproductions) and coordinator/worker sharding of their
// embarrassingly parallel cell grids.
//
// The two halves:
//
//   - Async jobs (store.go, journal.go): a JobStore runs validated
//     JobSpecs in the background with bounded concurrency, exposes
//     state/progress/partial aggregates, cancels via context, dedupes
//     identical specs by canonical hash, and — with a file-backed
//     journal — survives a process crash: unfinished jobs are
//     re-queued and resumed on restart. internal/server mounts it as
//     POST/GET/DELETE /v1/jobs.
//
//   - Coordinator/worker sharding (coordinator.go, worker.go): a
//     Coordinator decomposes a campaign into deterministic shards
//     (contiguous unit ranges of the internal/exp enumeration; a
//     unit is one grid cell, all its replications included),
//     dispatches them to workers over HTTP (POST /v1/shards) with
//     bounded in-flight fan-out, retries failed or slow workers with
//     capped jittered backoff, splits a failed shard so its work
//     redistributes across the surviving fleet, falls back to local
//     execution when every worker is gone, and merges the units with
//     exp.MergeSweepUnits. The single-process exp.RunSweepCtx is
//     itself "run every unit, then aggregate" on the same driver, and
//     every replication's random streams derive from its coordinates
//     alone, so the merged result is bit-identical to it — a killed
//     worker can cost time, never correctness.
//
// Everything is stdlib-only, like the rest of the repository.
package dist

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"budgetwf/internal/exp"
	"budgetwf/internal/fault"
	"budgetwf/internal/market"
	"budgetwf/internal/platform"
	"budgetwf/internal/sched"
	"budgetwf/internal/wfgen"
)

// Spec ceilings. A single job may fan out to a cluster, but its result
// grid still materializes in coordinator memory: the bounds keep one
// request from allocating an unbounded grid. Violations are per-field
// 400s at the HTTP layer.
const (
	MaxTasks        = 500
	MaxGridK        = 400
	MaxInstances    = 400
	MaxReplications = 400
	MaxRates        = 64
)

// JobKind discriminates the JobSpec payload.
type JobKind string

const (
	KindSweep      JobKind = "sweep"
	KindFaultSweep JobKind = "faultSweep"
	KindFigure     JobKind = "figure"
)

// FieldError names the spec field that failed validation, so the HTTP
// layer can emit per-field 400s. Semantic distinguishes the repo's two
// rejection classes: false is a scalar-domain violation (HTTP 400),
// true a well-formed value naming something unusable — an unknown
// algorithm, an unsatisfiable generator constraint (HTTP 422).
type FieldError struct {
	Field    string
	Msg      string
	Semantic bool
}

func (e *FieldError) Error() string { return fmt.Sprintf("%s: %s", e.Field, e.Msg) }

func fieldErrf(field, format string, args ...any) error {
	return &FieldError{Field: field, Msg: fmt.Sprintf(format, args...)}
}

func semErrf(field, format string, args ...any) error {
	return &FieldError{Field: field, Msg: fmt.Sprintf(format, args...), Semantic: true}
}

// SweepSpec is the wire description of one budget sweep — the async
// counterpart of POST /v1/sweep, with an optional explicit platform.
type SweepSpec struct {
	// WorkflowType is a generator family name (cybershake, ligo,
	// montage, epigenomics, sipht, random, chain, forkjoin, bagoftasks).
	WorkflowType string `json:"workflowType"`
	// N is the number of tasks per instance.
	N int `json:"n"`
	// SigmaRatio is σ/w̄; default 0.5 (the paper's central value).
	SigmaRatio float64 `json:"sigmaRatio,omitempty"`
	// Algorithms defaults to the paper's nine.
	Algorithms []string `json:"algorithms,omitempty"`
	// GridK is the number of budget levels; default 8.
	GridK int `json:"gridK,omitempty"`
	// Instances and Replications default to the paper's 5 and 25.
	Instances    int    `json:"instances,omitempty"`
	Replications int    `json:"replications,omitempty"`
	Seed         uint64 `json:"seed,omitempty"`
	// Platform optionally overrides the paper's Table II platform.
	Platform *platform.Platform `json:"platform,omitempty"`
	// Market optionally describes a multi-provider market (price
	// sheets, transfer matrix, spot categories; see internal/market)
	// that compiles into the sweep's platform. Mutually exclusive with
	// Platform.
	Market *market.Spec `json:"market,omitempty"`
	// Estimator selects how each cell's samples are produced: "mc"
	// (Monte Carlo replication, the default) or "analytic"
	// (moment-propagation quantile grid, internal/est).
	Estimator string `json:"estimator,omitempty"`
}

// normalize fills defaults in place so that equivalent specs hash
// identically and every execution site (coordinator, worker, local
// fallback) resolves the same scenario.
func (s *SweepSpec) normalize() {
	if s.SigmaRatio == 0 {
		s.SigmaRatio = 0.5
	}
	if s.GridK == 0 {
		s.GridK = 8
	}
	if s.Instances == 0 {
		s.Instances = 5
	}
	if s.Replications == 0 {
		s.Replications = 25
	}
	if len(s.Algorithms) == 0 {
		for _, a := range sched.All() {
			s.Algorithms = append(s.Algorithms, string(a.Name))
		}
	}
	if s.Estimator == "" {
		s.Estimator = exp.EstimatorMC
	}
}

// Validate checks every field, returning *FieldError values.
func (s *SweepSpec) Validate() error {
	typ, err := wfgen.ParseType(s.WorkflowType)
	if err != nil {
		return semErrf("workflowType", "%v", err)
	}
	switch {
	case s.N < 4 || s.N > MaxTasks:
		return fieldErrf("n", "must be in [4, %d]", MaxTasks)
	case s.GridK < 0 || s.GridK > MaxGridK:
		return fieldErrf("gridK", "must be in [1, %d]", MaxGridK)
	case s.Instances < 0 || s.Instances > MaxInstances:
		return fieldErrf("instances", "must be in [1, %d]", MaxInstances)
	case s.Replications < 0 || s.Replications > MaxReplications:
		return fieldErrf("replications", "must be in [1, %d]", MaxReplications)
	case s.SigmaRatio < 0 || s.SigmaRatio > 10 || s.SigmaRatio != s.SigmaRatio:
		return fieldErrf("sigmaRatio", "must be in [0, 10]")
	case !exp.ValidEstimator(s.Estimator):
		return fieldErrf("estimator", "must be %q or %q", exp.EstimatorMC, exp.EstimatorAnalytic)
	}
	for _, name := range s.Algorithms {
		if _, err := sched.ByName(sched.Name(name)); err != nil {
			return semErrf("algorithms", "%v", err)
		}
	}
	if s.Market != nil && s.Platform != nil {
		return fieldErrf("market", "mutually exclusive with platform")
	}
	if s.Platform != nil {
		if err := s.Platform.Validate(); err != nil {
			return semErrf("platform", "%v", err)
		}
		// The analytic estimator refuses fluid bandwidth sharing
		// (est.ErrContention); reject the combination at submission
		// rather than mid-job.
		if s.Estimator == exp.EstimatorAnalytic && s.Platform.DCBandwidth > 0 {
			return semErrf("estimator", "analytic estimator cannot model bandwidth contention (platform.dcBandwidth > 0)")
		}
		if s.Estimator == exp.EstimatorAnalytic && s.Platform.MarketDistinct() {
			return semErrf("estimator", "analytic estimator cannot model market platforms (est.ErrMarket); use estimator=mc")
		}
	}
	if s.Market != nil {
		p, err := s.Market.Compile()
		if err != nil {
			return marketFieldError(err)
		}
		if s.Estimator == exp.EstimatorAnalytic && p.MarketDistinct() {
			return semErrf("estimator", "analytic estimator cannot model market platforms (est.ErrMarket); use estimator=mc")
		}
	}
	// Probe the generator: family-specific constraints (e.g. Montage
	// needing ≥ 12 tasks) surface at submission, not mid-job.
	if _, err := wfgen.Generate(typ, s.N, s.Seed); err != nil {
		return semErrf("n", "%v", err)
	}
	return nil
}

// Scenario resolves the spec into the experiment-harness types.
func (s *SweepSpec) Scenario() (exp.Scenario, []sched.Algorithm, int, error) {
	typ, err := wfgen.ParseType(s.WorkflowType)
	if err != nil {
		return exp.Scenario{}, nil, 0, err
	}
	algs := make([]sched.Algorithm, 0, len(s.Algorithms))
	for _, name := range s.Algorithms {
		a, err := sched.ByName(sched.Name(name))
		if err != nil {
			return exp.Scenario{}, nil, 0, err
		}
		algs = append(algs, a)
	}
	sc := exp.Scenario{
		Type:       typ,
		N:          s.N,
		SigmaRatio: s.SigmaRatio,
		Platform:   s.Platform,
		Instances:  s.Instances,
		Reps:       s.Replications,
		Seed:       s.Seed,
		Estimator:  s.Estimator,
	}
	if s.Market != nil {
		p, err := s.Market.Compile()
		if err != nil {
			return exp.Scenario{}, nil, 0, err
		}
		sc.Platform = p
	}
	return sc, algs, s.GridK, nil
}

// marketFieldError maps a market.FieldError onto the dist error shape,
// keeping the per-field path and the 400-vs-422 class.
func marketFieldError(err error) error {
	if me, ok := err.(*market.FieldError); ok {
		return &FieldError{Field: "market." + me.Field, Msg: me.Msg, Semantic: me.Semantic}
	}
	return semErrf("market", "%v", err)
}

// FaultSweepSpec is the wire description of one λ-grid robustness
// sweep — the async counterpart of cmd/simulate -fault-sweep.
type FaultSweepSpec struct {
	WorkflowType string  `json:"workflowType"`
	N            int     `json:"n"`
	SigmaRatio   float64 `json:"sigmaRatio,omitempty"`
	// Algorithm plans the schedule; default heftbudg.
	Algorithm string `json:"algorithm,omitempty"`
	// BudgetFactor β sets each instance's budget to β × CheapCost;
	// default 1.5, negative lifts the budget guard.
	BudgetFactor float64 `json:"budgetFactor,omitempty"`
	// Rates is the λ grid in crashes per VM-hour; default
	// exp.DefaultFaultRates. A zero anchor is prepended when absent.
	Rates        []float64 `json:"rates,omitempty"`
	Instances    int       `json:"instances,omitempty"`
	Replications int       `json:"replications,omitempty"`
	Seed         uint64    `json:"seed,omitempty"`
	// Faults is the fault-spec template (crash rates come from Rates).
	Faults *fault.Spec `json:"faults,omitempty"`
}

func (s *FaultSweepSpec) normalize() {
	if s.SigmaRatio == 0 {
		s.SigmaRatio = 0.5
	}
	if s.Instances == 0 {
		s.Instances = 5
	}
	if s.Replications == 0 {
		s.Replications = 25
	}
	if s.Algorithm == "" {
		s.Algorithm = string(sched.NameHeftBudg)
	}
	if s.BudgetFactor == 0 {
		s.BudgetFactor = 1.5
	}
	if len(s.Rates) == 0 {
		s.Rates = append([]float64(nil), exp.DefaultFaultRates...)
	}
}

// Validate checks every field, returning *FieldError values.
func (s *FaultSweepSpec) Validate() error {
	typ, err := wfgen.ParseType(s.WorkflowType)
	if err != nil {
		return semErrf("workflowType", "%v", err)
	}
	switch {
	case s.N < 4 || s.N > MaxTasks:
		return fieldErrf("n", "must be in [4, %d]", MaxTasks)
	case s.Instances < 0 || s.Instances > MaxInstances:
		return fieldErrf("instances", "must be in [1, %d]", MaxInstances)
	case s.Replications < 0 || s.Replications > MaxReplications:
		return fieldErrf("replications", "must be in [1, %d]", MaxReplications)
	case s.SigmaRatio < 0 || s.SigmaRatio > 10 || s.SigmaRatio != s.SigmaRatio:
		return fieldErrf("sigmaRatio", "must be in [0, 10]")
	case len(s.Rates) > MaxRates:
		return fieldErrf("rates", "at most %d rates", MaxRates)
	}
	for _, lam := range s.Rates {
		if lam < 0 || lam != lam {
			return fieldErrf("rates", "rates must be non-negative, got %g", lam)
		}
	}
	if s.Algorithm != "" {
		if _, err := sched.ByName(sched.Name(s.Algorithm)); err != nil {
			return semErrf("algorithm", "%v", err)
		}
	}
	if s.Faults != nil {
		tmpl := *s.Faults
		tmpl.CrashRatePerHour = nil
		if err := tmpl.Validate(platform.Default().NumCategories()); err != nil {
			return semErrf("faults", "%v", err)
		}
	}
	if _, err := wfgen.Generate(typ, s.N, s.Seed); err != nil {
		return semErrf("n", "%v", err)
	}
	return nil
}

// Scenario resolves the spec into the experiment-harness type.
func (s *FaultSweepSpec) Scenario() (exp.FaultScenario, error) {
	typ, err := wfgen.ParseType(s.WorkflowType)
	if err != nil {
		return exp.FaultScenario{}, err
	}
	sc := exp.FaultScenario{
		Scenario: exp.Scenario{
			Type:       typ,
			N:          s.N,
			SigmaRatio: s.SigmaRatio,
			Instances:  s.Instances,
			Reps:       s.Replications,
			Seed:       s.Seed,
		},
		Rates:        append([]float64(nil), s.Rates...),
		BudgetFactor: s.BudgetFactor,
	}
	if s.Algorithm != "" {
		alg, err := sched.ByName(sched.Name(s.Algorithm))
		if err != nil {
			return exp.FaultScenario{}, err
		}
		sc.Alg = alg
	}
	if s.Faults != nil {
		sc.Spec = *s.Faults
	}
	return sc, nil
}

// FigureSpec asks for a whole paper-figure campaign: the figure's
// algorithm set swept over all three paper workflow families.
type FigureSpec struct {
	// Figure selects the paper figure (1–4), which fixes the
	// algorithm set.
	Figure int `json:"figure"`
	// N, SigmaRatio, GridK, Instances and Replications default to the
	// paper's methodology (90 tasks, 0.5, 8, 5, 25).
	N            int     `json:"n,omitempty"`
	SigmaRatio   float64 `json:"sigmaRatio,omitempty"`
	GridK        int     `json:"gridK,omitempty"`
	Instances    int     `json:"instances,omitempty"`
	Replications int     `json:"replications,omitempty"`
	Seed         uint64  `json:"seed,omitempty"`
	// Estimator is "mc" (default) or "analytic", as in SweepSpec.
	Estimator string `json:"estimator,omitempty"`
}

func (s *FigureSpec) normalize() {
	if s.N == 0 {
		s.N = 90
	}
	if s.SigmaRatio == 0 {
		s.SigmaRatio = 0.5
	}
	if s.GridK == 0 {
		s.GridK = 8
	}
	if s.Instances == 0 {
		s.Instances = 5
	}
	if s.Replications == 0 {
		s.Replications = 25
	}
	if s.Estimator == "" {
		s.Estimator = exp.EstimatorMC
	}
}

// Validate checks every field, returning *FieldError values.
func (s *FigureSpec) Validate() error {
	if _, err := exp.FigureAlgorithms(s.Figure); err != nil {
		return semErrf("figure", "must be 1–4")
	}
	switch {
	case s.N < 12 || s.N > MaxTasks:
		// 12 is the Montage minimum; every figure sweeps Montage.
		return fieldErrf("n", "must be in [12, %d]", MaxTasks)
	case s.GridK < 0 || s.GridK > MaxGridK:
		return fieldErrf("gridK", "must be in [1, %d]", MaxGridK)
	case s.Instances < 0 || s.Instances > MaxInstances:
		return fieldErrf("instances", "must be in [1, %d]", MaxInstances)
	case s.Replications < 0 || s.Replications > MaxReplications:
		return fieldErrf("replications", "must be in [1, %d]", MaxReplications)
	case s.SigmaRatio < 0 || s.SigmaRatio > 10 || s.SigmaRatio != s.SigmaRatio:
		return fieldErrf("sigmaRatio", "must be in [0, 10]")
	case !exp.ValidEstimator(s.Estimator):
		return fieldErrf("estimator", "must be %q or %q", exp.EstimatorMC, exp.EstimatorAnalytic)
	}
	return nil
}

// JobSpec is the body of POST /v1/jobs: exactly one of the payloads,
// selected by Kind.
type JobSpec struct {
	Kind       JobKind         `json:"kind"`
	Sweep      *SweepSpec      `json:"sweep,omitempty"`
	FaultSweep *FaultSweepSpec `json:"faultSweep,omitempty"`
	Figure     *FigureSpec     `json:"figure,omitempty"`
}

// Normalize fills every defaulted field in place. Hash assumes a
// normalized spec, so equivalent submissions dedupe to one job.
func (s *JobSpec) Normalize() {
	switch s.Kind {
	case KindSweep:
		if s.Sweep != nil {
			s.Sweep.normalize()
		}
	case KindFaultSweep:
		if s.FaultSweep != nil {
			s.FaultSweep.normalize()
		}
	case KindFigure:
		if s.Figure != nil {
			s.Figure.normalize()
		}
	}
}

// Validate checks the envelope and the selected payload. Errors are
// *FieldError values with dotted paths ("sweep.gridK").
func (s *JobSpec) Validate() error {
	present := 0
	if s.Sweep != nil {
		present++
	}
	if s.FaultSweep != nil {
		present++
	}
	if s.Figure != nil {
		present++
	}
	if present > 1 {
		return fieldErrf("kind", "exactly one of sweep, faultSweep, figure may be set")
	}
	switch s.Kind {
	case KindSweep:
		if s.Sweep == nil {
			return fieldErrf("sweep", "required for kind %q", s.Kind)
		}
		if err := s.Sweep.Validate(); err != nil {
			return prefixField("sweep", err)
		}
	case KindFaultSweep:
		if s.FaultSweep == nil {
			return fieldErrf("faultSweep", "required for kind %q", s.Kind)
		}
		if err := s.FaultSweep.Validate(); err != nil {
			return prefixField("faultSweep", err)
		}
	case KindFigure:
		if s.Figure == nil {
			return fieldErrf("figure", "required for kind %q", s.Kind)
		}
		if err := s.Figure.Validate(); err != nil {
			return prefixField("figure", err)
		}
	default:
		return fieldErrf("kind", "unknown kind %q (want sweep, faultSweep or figure)", s.Kind)
	}
	return nil
}

// prefixField dots a payload prefix onto a nested FieldError.
func prefixField(prefix string, err error) error {
	if fe, ok := err.(*FieldError); ok {
		return &FieldError{Field: prefix + "." + fe.Field, Msg: fe.Msg, Semantic: fe.Semantic}
	}
	return fmt.Errorf("%s: %w", prefix, err)
}

// Hash is the canonical content hash of the (normalized) spec:
// identical campaigns dedupe to the same job, and — results being
// deterministic — a completed job doubles as a content-addressed
// cache entry for its spec.
func (s *JobSpec) Hash() string {
	b, err := json.Marshal(s)
	if err != nil {
		// Specs are plain data; Marshal cannot fail on them.
		panic(fmt.Sprintf("dist: hashing spec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
