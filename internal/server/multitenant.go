package server

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"

	"budgetwf/internal/obs"
	"budgetwf/internal/online"
	"budgetwf/internal/pool"
	"budgetwf/internal/reqerr"
)

// The multi-tenant shared-pool surface: POST /v1/submit feeds one
// workflow into the continuously-running pool executor and returns its
// settled Report; GET /v1/tenants[/{id}] exposes the per-tenant
// billing ledgers. Mounted only when Config.EnablePool is set — the
// pool holds long-lived virtual-time state, which a stateless planning
// daemon should not accumulate by surprise.
//
// Error discipline matches the rest of the API: scalar-domain
// violations in the submission (NaN budgets, negative caps) are
// per-field 400s, semantically unusable specs (unknown algorithm,
// cyclic DAG, conflicting tenant re-registration) are 422s, and
// fair-share admission rejections — the tenant is over its
// concurrent-workflow or VM cap, or out of budget — are 429s with
// Retry-After, mirroring the worker pool's own overload behavior.
//
// Submissions deliberately bypass the plan cache: a cached plan keyed
// on (workflow, platform, algorithm, budget) carries estimates that
// assume a private pool of fresh VMs, and the shared pool's
// available-VM set differs from one arrival to the next, so such a
// plan could be reused in a pool state it was never planned for. The
// cache-bypass test pins this: /v1/submit must move neither the hit
// nor the miss counter.

// submitRequest is the body of POST /v1/submit.
type submitRequest struct {
	// Tenant identifies the submitting tenant; registered on first
	// sight, checked for consistency afterwards.
	Tenant pool.TenantSpec `json:"tenant"`
	// Workflow is required, in the internal/wf JSON format.
	Workflow json.RawMessage `json:"workflow"`
	// Algorithm names a registered planning algorithm.
	Algorithm string `json:"algorithm"`
	// Budget is the per-workflow budget B_ini; 0 lifts the guard (the
	// tenant-level budget still applies).
	Budget float64 `json:"budget,omitempty"`
	// TimeoutMillis optionally tightens the server's processing
	// deadline for this submission.
	TimeoutMillis float64 `json:"timeoutMillis,omitempty"`
}

// submitReportJSON is the settled execution Report on the wire, shaped
// like internal/online's Report.
type submitReportJSON struct {
	Makespan   float64 `json:"makespan"`
	TotalCost  float64 `json:"totalCost"`
	DCCost     float64 `json:"dcCost"`
	NumVMs     int     `json:"numVMs"`
	Migrations int     `json:"migrations"`
	Vetoed     int     `json:"vetoed"`
	Completed  bool    `json:"completed"`
}

func toSubmitReportJSON(r *online.Report) *submitReportJSON {
	if r == nil {
		return nil
	}
	return &submitReportJSON{
		Makespan:   r.Makespan,
		TotalCost:  r.TotalCost,
		DCCost:     r.DCCost,
		NumVMs:     r.NumVMs,
		Migrations: len(r.Migrations),
		Vetoed:     r.Vetoed,
		Completed:  r.Completed,
	}
}

// submitResponse is the body of a POST /v1/submit response (200 for a
// settled submission, 429 for an admission rejection).
type submitResponse struct {
	SubID         int               `json:"subId"`
	Tenant        string            `json:"tenant"`
	State         string            `json:"state"`
	Reason        string            `json:"reason,omitempty"`
	Report        *submitReportJSON `json:"report,omitempty"`
	FreshVMs      int               `json:"freshVMs"`
	ReusedVMs     int               `json:"reusedVMs"`
	SavedInitCost float64           `json:"savedInitCost"`
	Charged       float64           `json:"charged"`
	ArrivedAt     float64           `json:"arrivedAt"`
	SettledAt     float64           `json:"settledAt"`
	RequestID     string            `json:"requestId"`
}

func toSubmitResponse(o *pool.Outcome, reqID string) submitResponse {
	return submitResponse{
		SubID:         o.SubID,
		Tenant:        o.Tenant,
		State:         o.State,
		Reason:        o.Reason,
		Report:        toSubmitReportJSON(o.Report),
		FreshVMs:      o.FreshVMs,
		ReusedVMs:     o.ReusedVMs,
		SavedInitCost: o.SavedInitCost,
		Charged:       o.Charged,
		ArrivedAt:     o.ArrivedAt,
		SettledAt:     o.SettledAt,
		RequestID:     reqID,
	}
}

// handleSubmit serves POST /v1/submit.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r.Context())
	var req submitRequest
	if err := reqerr.DecodeStrict(r.Body, &req); err != nil {
		writeDecodeError(w, err, reqID)
		return
	}
	wfl, err := parseWorkflow(req.Workflow)
	if err != nil {
		s.fail(w, reqID, err)
		return
	}
	if err := checkNonNegative("timeoutMillis", req.TimeoutMillis); err != nil {
		s.fail(w, reqID, err)
		return
	}
	root := rootSpan(r.Context())
	root.Set(obs.Str("algorithm", req.Algorithm), obs.Str("tenant", req.Tenant.ID))

	resp, ok := s.runPooledTimeout(w, r, s.requestTimeout(req.TimeoutMillis), func(ctx context.Context) (any, error) {
		var span *obs.Span
		if root != nil {
			span = root.Child("pool-submit")
			defer span.End()
		}
		// The pool validates and plans under its own lock; the defects
		// it classifies (*reqerr.Error) reach Server.fail as they are.
		return s.poolSvc.Submit(ctx, pool.Submission{
			Tenant:    req.Tenant,
			Workflow:  wfl,
			Algorithm: req.Algorithm,
			Budget:    req.Budget,
			Span:      span,
		})
	})
	if !ok {
		return
	}
	o := resp.(*pool.Outcome)
	status := http.StatusOK
	if o.State == pool.StateRejected {
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
	}
	writeJSON(w, status, toSubmitResponse(o, reqID))
}

// handleTenants serves GET /v1/tenants: every registered tenant's
// billing ledger in registration order, plus the pool-wide snapshot.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"tenants": s.poolSvc.Tenants(),
		"pool":    s.poolSvc.Stats(),
	})
}

// handleTenantGet serves GET /v1/tenants/{id}.
func (s *Server) handleTenantGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, ok := s.poolSvc.Tenant(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown tenant "+id, requestID(r.Context()))
		return
	}
	writeJSON(w, http.StatusOK, v)
}
