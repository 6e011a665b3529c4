package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"

	"budgetwf/internal/fault"
	"budgetwf/internal/market"
	"budgetwf/internal/obs"
	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/reqerr"
	"budgetwf/internal/stats"
	"budgetwf/internal/wf"
)

// The wire types of the budgetwfd HTTP/JSON API. Workflows and
// schedules reuse the repository's canonical on-disk formats
// (internal/wf JSON, internal/plan JSON) verbatim, so a file produced
// by cmd/wfgen posts unchanged and a schedule response feeds straight
// into cmd/simulate.
//
// Error discipline (stated once, in DESIGN §4.1): a body the strict
// decoder refuses, or a scalar field outside its domain, is a 400; a
// well-formed body that describes something unusable — a cyclic DAG, an
// unknown algorithm, a schedule inconsistent with its workflow — is a
// 422. Every validator, here and in fault, market, pool and dist, says
// which with one type (*reqerr.Error), and Server.fail is the one place
// that turns it into the status. A body over MaxBodyBytes is a 413
// whatever it contains. Overload is a 429 with Retry-After, and a
// server-side deadline expiry is a 504.

// scheduleRequest is the body of POST /v1/schedule.
type scheduleRequest struct {
	// Workflow is required, in the internal/wf JSON format.
	Workflow json.RawMessage `json:"workflow"`
	// Platform is optional; omitted or null selects the paper's
	// Table II default platform.
	Platform json.RawMessage `json:"platform,omitempty"`
	// Market is an internal/market spec compiled into the platform —
	// multi-provider price sheets, transfer matrices, spot categories.
	// Mutually exclusive with Platform (400).
	Market json.RawMessage `json:"market,omitempty"`
	// Algorithm names one of the registered algorithms (see
	// GET /v1/algorithms).
	Algorithm string `json:"algorithm"`
	// Budget is B_ini in dollars; ignored by the budget-blind
	// baselines.
	Budget float64 `json:"budget"`
}

// scheduleResponse is the body of a successful POST /v1/schedule.
type scheduleResponse struct {
	Algorithm string  `json:"algorithm"`
	Budget    float64 `json:"budget"`
	// Schedule is the plan in the internal/plan JSON format.
	Schedule json.RawMessage `json:"schedule"`
	NumVMs   int             `json:"numVMs"`
	// EstMakespan and EstCost are authoritative deterministic-simulation
	// values (conservative weights), not the planner's own estimates.
	EstMakespan float64 `json:"estMakespan"`
	EstCost     float64 `json:"estCost"`
	// Cached reports whether the plan came from the content-addressed
	// cache instead of a fresh planner run.
	Cached     bool    `json:"cached"`
	PlanMillis float64 `json:"planMillis"`
	RequestID  string  `json:"requestId"`
	// Trace is the request's span tree — including the planner's
	// per-task decision events — present only when the request asked
	// for it with ?trace=1. The same tree is retrievable afterwards via
	// GET /v1/traces/{requestId}.
	Trace *obs.TraceJSON `json:"trace,omitempty"`
}

// simulateRequest is the body of POST /v1/simulate.
type simulateRequest struct {
	Workflow json.RawMessage `json:"workflow"`
	Platform json.RawMessage `json:"platform,omitempty"`
	// Market is an internal/market spec compiled into the platform;
	// mutually exclusive with Platform (400). Spot revocation hazards
	// compile into the fault process automatically, superposed on any
	// explicit Faults spec.
	Market json.RawMessage `json:"market,omitempty"`
	// Schedule is a plan previously returned by /v1/schedule (or
	// written by cmd/schedule), in the internal/plan JSON format.
	Schedule json.RawMessage `json:"schedule"`
	// Replications is the number of stochastic executions; default 25
	// (the paper's methodology), capped at maxReplications.
	Replications int `json:"replications,omitempty"`
	// Seed decorrelates the stochastic weight draws; default 0.
	Seed uint64 `json:"seed,omitempty"`
	// Budget, when positive, enables the validity accounting — and,
	// under fault injection, arms the recovery budget guard.
	Budget float64 `json:"budget,omitempty"`
	// Faults, when present, injects VM crashes, boot failures and
	// transient task failures into every replication (see
	// internal/fault for the spec format). Invalid fields are 400s,
	// named per field. Budget-exhausted replications degrade to
	// partial results and lower the reported success rate; they never
	// fail the request.
	Faults *fault.Spec `json:"faults,omitempty"`
	// TimeoutMillis, when positive, tightens the server's per-request
	// processing deadline for this request (it cannot extend the
	// server-wide limit). Negative values are 400s.
	TimeoutMillis float64 `json:"timeoutMillis,omitempty"`
	// Estimator selects how the replication samples are produced:
	// "mc" (Monte Carlo, the default) replays the schedule under
	// sampled weights; "analytic" (internal/est) propagates moments
	// once and reads the replications off the fitted quantile grid.
	// The analytic estimator is incompatible with fault injection and
	// with bandwidth contention (422s).
	Estimator string `json:"estimator,omitempty"`
}

// summaryJSON mirrors stats.Summary on the wire.
type summaryJSON struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stdDev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Median float64 `json:"median"`
}

func toSummaryJSON(s stats.Summary) summaryJSON {
	return summaryJSON{N: s.N, Mean: s.Mean, StdDev: s.StdDev, Min: s.Min, Max: s.Max, Median: s.Median}
}

// simulateResponse is the body of a successful POST /v1/simulate.
type simulateResponse struct {
	Replications int `json:"replications"`
	// Makespan summarizes completed replications only (all of them
	// without fault injection); Cost summarizes every replication.
	Makespan summaryJSON `json:"makespan"`
	Cost     summaryJSON `json:"cost"`
	// ValidFrac is the fraction of executions whose realized cost
	// respected Budget (1 when Budget is absent).
	ValidFrac float64 `json:"validFrac"`
	Budget    float64 `json:"budget"`
	// Faults aggregates the fault-injection outcomes; present only
	// when the request carried a faults spec.
	Faults *faultSummaryJSON `json:"faults,omitempty"`
	// Spot aggregates the spot-market outcomes; present only when the
	// platform sells spot (preemptible) categories.
	Spot      *spotSummaryJSON `json:"spot,omitempty"`
	RequestID string           `json:"requestId"`
	// Trace is the request's span tree — per-replication spans, and
	// under fault injection the crash/recovery event stream — present
	// only when the request asked for it with ?trace=1.
	Trace *obs.TraceJSON `json:"trace,omitempty"`
}

// faultSummaryJSON aggregates fault-injection outcomes across the
// replications of one simulate request.
type faultSummaryJSON struct {
	// SuccessRate is the fraction of replications that completed every
	// task; the complement degraded to partial results under the
	// budget guard or the retry caps.
	SuccessRate float64 `json:"successRate"`
	Completed   int     `json:"completed"`
	// Per-replication means.
	CrashesPerRun          float64 `json:"crashesPerRun"`
	BootFailuresPerRun     float64 `json:"bootFailuresPerRun"`
	TaskFailuresPerRun     float64 `json:"taskFailuresPerRun"`
	RecoveriesPerRun       float64 `json:"recoveriesPerRun"`
	RecoveriesVetoedPerRun float64 `json:"recoveriesVetoedPerRun"`
	WastedSecondsPerRun    float64 `json:"wastedSecondsPerRun"`
}

// spotSummaryJSON aggregates spot-market outcomes across the
// replications of one simulate request on a platform with spot
// categories.
type spotSummaryJSON struct {
	// SuccessRate is the fraction of replications that completed every
	// task despite revocations.
	SuccessRate float64 `json:"successRate"`
	Completed   int     `json:"completed"`
	// Per-replication means: spot VMs booked, revocations suffered,
	// realized spot spend, and rework cost (wasted spot billing plus
	// revocation-triggered replacement init fees).
	SpotVMsPerRun     float64 `json:"spotVMsPerRun"`
	RevocationsPerRun float64 `json:"revocationsPerRun"`
	SpotCostPerRun    float64 `json:"spotCostPerRun"`
	ReworkCostPerRun  float64 `json:"reworkCostPerRun"`
}

// sweepPoint is one (algorithm, budget) cell of the sweep response.
type sweepPoint struct {
	Factor    float64     `json:"factor"`
	Budget    float64     `json:"budget"`
	Makespan  summaryJSON `json:"makespan"`
	Cost      summaryJSON `json:"cost"`
	NumVMs    summaryJSON `json:"numVMs"`
	ValidFrac float64     `json:"validFrac"`
	// SuccessFrac is the fraction of executions that completed every
	// task — exactly 1 on revocation-free platforms.
	SuccessFrac float64 `json:"successFrac"`
	// Per-execution spot means; omitted on platforms without spot
	// categories, where they are identically zero.
	SpotVMs     float64 `json:"spotVMs,omitempty"`
	Revocations float64 `json:"revocations,omitempty"`
	ReworkCost  float64 `json:"reworkCost,omitempty"`
}

// sweepSeries is one algorithm's curve.
type sweepSeries struct {
	Algorithm string       `json:"algorithm"`
	Points    []sweepPoint `json:"points"`
}

// sweepResponse is the body of a successful POST /v1/sweep.
type sweepResponse struct {
	WorkflowType     string        `json:"workflowType"`
	N                int           `json:"n"`
	SigmaRatio       float64       `json:"sigmaRatio"`
	MinCostMakespan  float64       `json:"minCostMakespan"`
	MinCostBudget    float64       `json:"minCostBudget"`
	BaselineMakespan float64       `json:"baselineMakespan"`
	Series           []sweepSeries `json:"series"`
	RequestID        string        `json:"requestId"`
}

// algorithmInfo is one entry of GET /v1/algorithms.
type algorithmInfo struct {
	Name        string `json:"name"`
	NeedsBudget bool   `json:"needsBudget"`
}

// apiError is every non-2xx JSON body.
type apiError struct {
	Error     string `json:"error"`
	RequestID string `json:"requestId,omitempty"`
}

// writeDecodeError answers a request whose body could not be read or
// strictly decoded: 413 when it ran into the MaxBodyBytes limit — the
// JSON may be fine, there is just too much of it — and 400 with the
// decoder's message otherwise.
func writeDecodeError(w http.ResponseWriter, err error, reqID string) {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds the limit of %d bytes", tooLarge.Limit), reqID)
		return
	}
	writeError(w, http.StatusBadRequest, "malformed request body: "+err.Error(), reqID)
}

// The helpers below validate one part of a request each and return
// *reqerr.Error values naming it.

// parseWorkflow parses and validates the workflow sub-object: the
// envelope already proved the bytes are well-formed JSON, so what is
// wrong with them is semantic.
func parseWorkflow(raw json.RawMessage) (*wf.Workflow, error) {
	if len(raw) == 0 {
		return nil, reqerr.Unusable("workflow", "missing workflow")
	}
	w, err := wf.Decode(raw)
	return w, reqerr.Under("workflow", err)
}

// decodeScheduleFast decodes a /v1/schedule body that carries only a
// workflow, an algorithm and a budget in wf.DecodeEnvelope's one pass.
// When it reports false, req is untouched and the body takes
// reqerr.DecodeStrict and parseWorkflow instead, which decide every
// body this one declines — a platform or market, any error — exactly
// as they would have.
func decodeScheduleFast(body []byte, req *scheduleRequest) (*wf.Workflow, bool) {
	return wf.DecodeEnvelope(body, "workflow", "algorithm", &req.Algorithm, "budget", &req.Budget)
}

// rawPresent reports whether an optional raw sub-object was actually
// supplied (absent and JSON null both count as "not present").
func rawPresent(raw json.RawMessage) bool {
	return len(raw) != 0 && !bytes.Equal(bytes.TrimSpace(raw), []byte("null"))
}

// resolvePlatform resolves a request's platform/market pair: at most
// one may be present (the combination is malformed, not merely
// unusable), a market spec compiles through internal/market, and an
// absent pair defaults to the paper's Table II platform.
func resolvePlatform(platformRaw, marketRaw json.RawMessage) (*platform.Platform, error) {
	switch {
	case rawPresent(marketRaw) && rawPresent(platformRaw):
		return nil, reqerr.Invalid("market", "mutually exclusive with platform")
	case rawPresent(marketRaw):
		var spec market.Spec
		if err := reqerr.DecodeStrict(bytes.NewReader(marketRaw), &spec); err != nil {
			return nil, reqerr.Invalid("market", "%v", err)
		}
		return spec.Compile()
	case !rawPresent(platformRaw):
		return platform.Default(), nil
	}
	var p platform.Platform
	err := reqerr.DecodeStrict(bytes.NewReader(platformRaw), &p)
	if err == nil {
		err = p.Validate()
	}
	return &p, reqerr.Under("platform", err)
}

// parseSchedule parses the schedule sub-object and validates it
// against the workflow and platform it claims to schedule.
func parseSchedule(raw json.RawMessage, w *wf.Workflow, p *platform.Platform) (*plan.Schedule, error) {
	if len(raw) == 0 {
		return nil, reqerr.Unusable("schedule", "missing schedule")
	}
	s, err := plan.ReadJSON(bytes.NewReader(raw))
	if err == nil {
		err = s.Validate(w, p.NumCategories())
	}
	return s, reqerr.Under("schedule", err)
}

// checkNonNegative rejects a scalar outside the domain budgets and
// timeouts share — negative, NaN or infinite in either direction —
// without spending a pool slot. Zero means "none" for both.
func checkNonNegative(field string, v float64) error {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return reqerr.Invalid(field, "must be a finite non-negative number, got %v", v)
	}
	return nil
}
