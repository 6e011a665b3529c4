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
//     Coordinator decomposes a resolved campaign (Campaign, one
//     exp.Campaign of whatever kind) into deterministic shards
//     (contiguous unit ranges of its enumeration; a unit is one grid
//     cell, all its replications included), dispatches them to workers
//     over HTTP (POST /v1/shards) with bounded in-flight fan-out,
//     retries failed or slow workers with capped jittered backoff,
//     splits a failed shard so its work redistributes across the
//     surviving fleet, falls back to local execution when every worker
//     is gone, and returns the units for the campaign's own Merge. The
//     single-process entry points (exp.RunSweepCtx, …) are themselves
//     "run every unit, then aggregate" on the same driver, and every
//     replication's random streams derive from its coordinates alone,
//     so the merged result is bit-identical to theirs — a killed worker
//     can cost time, never correctness.
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
	"budgetwf/internal/reqerr"
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
	MaxSigmaRatio   = 10
)

// JobKind discriminates the JobSpec payload.
type JobKind string

const (
	KindSweep      JobKind = "sweep"
	KindFaultSweep JobKind = "faultSweep"
	KindFigure     JobKind = "figure"
)

// Every spec goes through Normalize, then Resolve, which validates it
// and resolves it into its campaign in one pass. Normalize fills
// defaults in place so that equivalent specs hash identically and every
// execution site (coordinator, worker, local fallback) resolves the same
// campaign; validation assumes a normalized spec and returns
// *reqerr.Error values — scalar-domain violations (400) or Semantic ones
// (422).

func setDefault[T comparable](field *T, def T) {
	var zero T
	if *field == zero {
		*field = def
	}
}

// normalizeCommon and checkCommon cover the fields all three campaign
// kinds share: the defaults are the paper's methodology (exp.Default*),
// the ranges the spec ceilings. minN is the kind's smallest workflow.
func normalizeCommon(sigmaRatio *float64, instances, replications *int) {
	setDefault(sigmaRatio, exp.DefaultSigmaRatio)
	setDefault(instances, exp.DefaultInstances)
	setDefault(replications, exp.DefaultReps)
}

func checkCommon(n, minN, instances, replications int, sigmaRatio float64) error {
	switch {
	case n < minN || n > MaxTasks:
		return reqerr.Invalid("n", "must be in [%d, %d]", minN, MaxTasks)
	case instances < 1 || instances > MaxInstances:
		return reqerr.Invalid("instances", "must be in [1, %d]", MaxInstances)
	case replications < 1 || replications > MaxReplications:
		return reqerr.Invalid("replications", "must be in [1, %d]", MaxReplications)
	case !(sigmaRatio >= 0 && sigmaRatio <= MaxSigmaRatio): // NaN fails both
		return reqerr.Invalid("sigmaRatio", "must be in [0, %d]", MaxSigmaRatio)
	}
	return nil
}

// normalizeBudgetGrid and checkBudgetGrid cover the two fields a budget
// sweep and a figure have and a fault sweep does not. p is the platform
// the estimator has to support, nil for the paper's.
func normalizeBudgetGrid(gridK *int, estimator *string) {
	setDefault(gridK, exp.DefaultGridK)
	setDefault(estimator, exp.EstimatorMC)
}

func checkBudgetGrid(gridK int, estimator string, p *platform.Platform) error {
	if gridK < 1 || gridK > MaxGridK {
		return reqerr.Invalid("gridK", "must be in [1, %d]", MaxGridK)
	}
	return exp.CheckEstimator(estimator, p, false)
}

// generatorType resolves the family name and probes the generator, so
// family-specific constraints (Montage needing ≥ 12 tasks) surface at
// submission, not mid-job. n must already be within the ceilings.
func generatorType(name string, n int, seed uint64) (wfgen.Type, error) {
	typ, err := wfgen.ParseType(name)
	if err != nil {
		return "", reqerr.Unusable("workflowType", "%v", err)
	}
	if _, err := wfgen.Generate(typ, n, seed); err != nil {
		return "", reqerr.Unusable("n", "%v", err)
	}
	return typ, nil
}

// SweepSpec is the wire description of one budget sweep: the body of
// POST /v1/sweep and the sweep object of a job.
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

// Normalize fills the spec's defaults in place.
func (s *SweepSpec) Normalize() {
	normalizeCommon(&s.SigmaRatio, &s.Instances, &s.Replications)
	normalizeBudgetGrid(&s.GridK, &s.Estimator)
	if len(s.Algorithms) == 0 {
		for _, a := range sched.All() {
			s.Algorithms = append(s.Algorithms, string(a.Name))
		}
	}
}

func (s *SweepSpec) campaign() (exp.Campaign, error) {
	sc, algs, gridK, err := s.Scenario()
	if err != nil {
		return nil, err
	}
	return exp.NewSweep(sc, algs, gridK)
}

// Scenario validates the spec and resolves it into the experiment-
// harness types. It is the one place the spec's names are looked up and
// its market compiled.
func (s *SweepSpec) Scenario() (exp.Scenario, []sched.Algorithm, int, error) {
	sc := exp.Scenario{
		N:          s.N,
		SigmaRatio: s.SigmaRatio,
		Platform:   s.Platform,
		Instances:  s.Instances,
		Reps:       s.Replications,
		Seed:       s.Seed,
		Estimator:  s.Estimator,
	}
	if err := checkCommon(s.N, 4, s.Instances, s.Replications, s.SigmaRatio); err != nil {
		return sc, nil, 0, err
	}
	var err error
	algs := make([]sched.Algorithm, len(s.Algorithms))
	for i, name := range s.Algorithms {
		if algs[i], err = sched.ByName(sched.Name(name)); err != nil {
			return sc, nil, 0, reqerr.Unusable("algorithms", "%v", err)
		}
	}
	switch {
	case s.Market != nil && s.Platform != nil:
		return sc, nil, 0, reqerr.Invalid("market", "mutually exclusive with platform")
	case s.Market != nil:
		if sc.Platform, err = s.Market.Compile(); err != nil {
			return sc, nil, 0, err
		}
	case s.Platform != nil:
		if err := s.Platform.Validate(); err != nil {
			return sc, nil, 0, reqerr.Unusable("platform", "%v", err)
		}
	}
	if err := checkBudgetGrid(s.GridK, s.Estimator, sc.Platform); err != nil {
		return sc, nil, 0, err
	}
	sc.Type, err = generatorType(s.WorkflowType, s.N, s.Seed)
	return sc, algs, s.GridK, err
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
	// exp.DefaultFaultRates. Normalization sorts it and prepends the
	// λ = 0 anchor when absent (exp.NormalizeFaultRates), so MaxRates
	// counts the anchor.
	Rates        []float64 `json:"rates,omitempty"`
	Instances    int       `json:"instances,omitempty"`
	Replications int       `json:"replications,omitempty"`
	Seed         uint64    `json:"seed,omitempty"`
	// Faults is the fault-spec template (crash rates come from Rates).
	Faults *fault.Spec `json:"faults,omitempty"`
}

// Normalize fills the spec's defaults in place and puts the rate grid
// in the order it runs in.
func (s *FaultSweepSpec) Normalize() {
	normalizeCommon(&s.SigmaRatio, &s.Instances, &s.Replications)
	setDefault(&s.Algorithm, string(sched.NameHeftBudg))
	setDefault(&s.BudgetFactor, exp.DefaultBudgetFactor)
	s.Rates = exp.NormalizeFaultRates(s.Rates)
}

// campaign validates the spec's own fields and resolves it;
// exp.NewFaultSweep checks the rest, the fault template included.
func (s *FaultSweepSpec) campaign() (exp.Campaign, error) {
	if err := checkCommon(s.N, 4, s.Instances, s.Replications, s.SigmaRatio); err != nil {
		return nil, err
	}
	if len(s.Rates) > MaxRates {
		return nil, reqerr.Invalid("rates", "at most %d rates, the λ = 0 anchor included", MaxRates)
	}
	for _, lam := range s.Rates {
		if !(lam >= 0) {
			return nil, reqerr.Invalid("rates", "rates must be non-negative, got %g", lam)
		}
	}
	alg, err := sched.ByName(sched.Name(s.Algorithm))
	if err != nil {
		return nil, reqerr.Unusable("algorithm", "%v", err)
	}
	typ, err := generatorType(s.WorkflowType, s.N, s.Seed)
	if err != nil {
		return nil, err
	}
	sc := exp.FaultScenario{
		Scenario: exp.Scenario{
			Type: typ, N: s.N, SigmaRatio: s.SigmaRatio,
			Instances: s.Instances, Reps: s.Replications, Seed: s.Seed,
		},
		Rates: s.Rates, Alg: alg, BudgetFactor: s.BudgetFactor,
	}
	if s.Faults != nil {
		sc.Spec = *s.Faults
	}
	return exp.NewFaultSweep(sc)
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

// Normalize fills the spec's defaults in place.
func (s *FigureSpec) Normalize() {
	setDefault(&s.N, exp.DefaultFigureTasks)
	normalizeCommon(&s.SigmaRatio, &s.Instances, &s.Replications)
	normalizeBudgetGrid(&s.GridK, &s.Estimator)
}

// Job is the figure campaign in its job envelope.
func (s *FigureSpec) Job() JobSpec { return JobSpec{Kind: KindFigure, Figure: s} }

func (s *FigureSpec) campaign() (exp.Campaign, error) {
	if _, err := exp.FigureAlgorithms(s.Figure); err != nil {
		return nil, reqerr.Unusable("figure", "must be 1–4")
	}
	// 12 is the Montage minimum; every figure sweeps Montage.
	if err := checkCommon(s.N, 12, s.Instances, s.Replications, s.SigmaRatio); err != nil {
		return nil, err
	}
	if err := checkBudgetGrid(s.GridK, s.Estimator, nil); err != nil {
		return nil, err
	}
	// Each family has its own size rule (LIGO wants a multiple of 10).
	for _, typ := range wfgen.AllPaperTypes() {
		if _, err := generatorType(string(typ), s.N, s.Seed); err != nil {
			return nil, err
		}
	}
	return exp.NewFigureSweeps(s.Figure, exp.FigureConfig{
		N: s.N, SigmaRatio: s.SigmaRatio, Instances: s.Instances, Reps: s.Replications,
		GridK: s.GridK, Seed: s.Seed, Estimator: s.Estimator,
	})
}

// JobSpec is the body of POST /v1/jobs: exactly one of the payloads,
// selected by Kind. A shard request embeds it.
type JobSpec struct {
	Kind       JobKind         `json:"kind"`
	Sweep      *SweepSpec      `json:"sweep,omitempty"`
	FaultSweep *FaultSweepSpec `json:"faultSweep,omitempty"`
	Figure     *FigureSpec     `json:"figure,omitempty"`
}

// payload is what the envelope needs of the campaign spec it carries.
type payload interface {
	Normalize()
	// campaign validates the normalized spec and resolves it.
	campaign() (exp.Campaign, error)
}

// selected checks the envelope and returns the payload Kind names: the
// one switch a new job kind adds a case to here.
func (s *JobSpec) selected() (payload, error) {
	present := 0
	for _, set := range []bool{s.Sweep != nil, s.FaultSweep != nil, s.Figure != nil} {
		if set {
			present++
		}
	}
	if present > 1 {
		return nil, reqerr.Invalid("kind", "exactly one of sweep, faultSweep, figure may be set")
	}
	switch {
	case s.Kind == KindSweep && s.Sweep != nil:
		return s.Sweep, nil
	case s.Kind == KindFaultSweep && s.FaultSweep != nil:
		return s.FaultSweep, nil
	case s.Kind == KindFigure && s.Figure != nil:
		return s.Figure, nil
	case s.Kind == KindSweep, s.Kind == KindFaultSweep, s.Kind == KindFigure:
		// The payload's JSON key is the kind's name.
		return nil, reqerr.Invalid(string(s.Kind), "required for kind %q", s.Kind)
	}
	return nil, reqerr.Invalid("kind", "unknown kind %q (want sweep, faultSweep or figure)", s.Kind)
}

// Normalize fills every defaulted field in place. Hash assumes a
// normalized spec, so equivalent submissions dedupe to one job.
func (s *JobSpec) Normalize() {
	if p, err := s.selected(); err == nil {
		p.Normalize()
	}
}

// Campaign is a validated job resolved into the exp campaign it names.
// The spec is what workers are sent (each resolves it again); the
// campaign sizes the grid, checks what comes back, runs local shards,
// and merges the units through its kind's own Merge.
type Campaign struct {
	Spec JobSpec
	exp.Campaign
}

// Resolve checks the envelope and the selected payload of the
// normalized spec and resolves it into its campaign; payload errors
// carry dotted paths ("sweep.gridK"). Resolving materializes nothing,
// so it is cheap enough to run before a pool slot is taken.
func (s *JobSpec) Resolve() (*Campaign, error) {
	p, err := s.selected()
	if err != nil {
		return nil, err
	}
	c, err := p.campaign()
	if err != nil {
		return nil, reqerr.Under(string(s.Kind), err)
	}
	return &Campaign{Spec: *s, Campaign: c}, nil
}

// Validate is Resolve with the campaign discarded.
func (s *JobSpec) Validate() error {
	_, err := s.Resolve()
	return err
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
