package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"budgetwf/internal/dist"
	"budgetwf/internal/exp"
	"budgetwf/internal/obs"
	"budgetwf/internal/reqerr"
)

// The async-job and shard endpoints (internal/dist glue):
//
//	POST   /v1/jobs       submit a sweep/faultSweep/figure campaign → 202 {jobId}
//	GET    /v1/jobs       list jobs (results elided)
//	GET    /v1/jobs/{id}  state, unit progress, result when done
//	DELETE /v1/jobs/{id}  cancel
//	POST   /v1/shards     evaluate one unit range (the worker side)
//
// A job executes outside the request worker pool — submission costs a
// 202, not a pool slot — through the server's dist.Coordinator, which
// shards it across Config.Peers (or runs locally without peers).
// Identical specs dedupe to one job by canonical hash, and because
// results are deterministic a finished job doubles as a content-
// addressed cache for its spec.

// jobSubmitResponse is the body of a successful POST /v1/jobs.
type jobSubmitResponse struct {
	JobID    string     `json:"jobId"`
	State    dist.State `json:"state"`
	SpecHash string     `json:"specHash"`
	// Deduped reports that an equivalent job already existed and its
	// id was returned instead of starting a duplicate.
	Deduped bool `json:"deduped"`
	// TraceID names the job's span tree (one span per shard attempt)
	// for GET /v1/traces/{traceId} once the job has run.
	TraceID   string `json:"traceId"`
	RequestID string `json:"requestId"`
}

// faultSweepPoint is one λ grid point of a fault-sweep job result.
type faultSweepPoint struct {
	Rate                   float64     `json:"rate"`
	SuccessRate            float64     `json:"successRate"`
	WithinBudget           float64     `json:"withinBudget"`
	Makespan               summaryJSON `json:"makespan"`
	Cost                   summaryJSON `json:"cost"`
	CrashesPerRun          float64     `json:"crashesPerRun"`
	BootFailuresPerRun     float64     `json:"bootFailuresPerRun"`
	TaskFailuresPerRun     float64     `json:"taskFailuresPerRun"`
	RecoveriesPerRun       float64     `json:"recoveriesPerRun"`
	RecoveriesVetoedPerRun float64     `json:"recoveriesVetoedPerRun"`
	WastedSecondsPerRun    float64     `json:"wastedSecondsPerRun"`
	MakespanFactor         float64     `json:"makespanFactor"`
	CostFactor             float64     `json:"costFactor"`
}

// faultSweepResponse is the result payload of a faultSweep job.
type faultSweepResponse struct {
	WorkflowType string            `json:"workflowType"`
	N            int               `json:"n"`
	Algorithm    string            `json:"algorithm"`
	Budget       float64           `json:"budget"`
	Points       []faultSweepPoint `json:"points"`
}

// figureJobResponse is the result payload of a figure job: one sweep
// per paper workflow family, in exp.AllPaperTypes order.
type figureJobResponse struct {
	Figure int             `json:"figure"`
	Sweeps []sweepResponse `json:"sweeps"`
}

// sweepResponseFrom maps an experiment-harness sweep result onto the
// wire format shared by POST /v1/sweep and the job results (the CI
// cluster smoke test diffs the two byte-for-byte).
func sweepResponseFrom(res *exp.SweepResult, reqID string) sweepResponse {
	out := sweepResponse{
		WorkflowType:     string(res.Scenario.Type),
		N:                res.Scenario.N,
		SigmaRatio:       res.Scenario.SigmaRatio,
		MinCostMakespan:  res.MinCostMakespan,
		MinCostBudget:    res.MinCostBudget,
		BaselineMakespan: res.BaselineMakespan,
		RequestID:        reqID,
	}
	for _, series := range res.Series {
		ss := sweepSeries{Algorithm: string(series.Algorithm)}
		for _, p := range series.Points {
			ss.Points = append(ss.Points, sweepPoint{
				Factor:      p.Factor,
				Budget:      p.Budget,
				Makespan:    toSummaryJSON(p.Makespan),
				Cost:        toSummaryJSON(p.Cost),
				NumVMs:      toSummaryJSON(p.NumVMs),
				ValidFrac:   p.ValidFrac,
				SuccessFrac: p.SuccessFrac,
				SpotVMs:     p.SpotVMs,
				Revocations: p.Revocations,
				ReworkCost:  p.ReworkCost,
			})
		}
		out.Series = append(out.Series, ss)
	}
	return out
}

// faultSweepResponseFrom maps a fault-sweep result onto the wire.
func faultSweepResponseFrom(res *exp.FaultSweepResult) faultSweepResponse {
	out := faultSweepResponse{
		WorkflowType: string(res.Scenario.Type),
		N:            res.Scenario.N,
		Algorithm:    string(res.Scenario.Alg.Name),
		Budget:       res.Budget,
	}
	for _, p := range res.Points {
		out.Points = append(out.Points, faultSweepPoint{
			Rate:                   p.Rate,
			SuccessRate:            p.SuccessRate,
			WithinBudget:           p.WithinBudget,
			Makespan:               toSummaryJSON(p.Makespan),
			Cost:                   toSummaryJSON(p.Cost),
			CrashesPerRun:          p.Crashes,
			BootFailuresPerRun:     p.BootFailures,
			TaskFailuresPerRun:     p.TaskFailures,
			RecoveriesPerRun:       p.Recoveries,
			RecoveriesVetoedPerRun: p.RecoveriesVetoed,
			WastedSecondsPerRun:    p.WastedSeconds,
			MakespanFactor:         p.MakespanFactor,
			CostFactor:             p.CostFactor,
		})
	}
	return out
}

// jobTraceID derives the job's trace id from its canonical spec hash:
// content-addressed, like the job itself.
func jobTraceID(spec *dist.JobSpec) string { return "job-" + spec.Hash()[:12] }

// handleJobSubmit accepts one campaign spec and returns 202 with the
// job id — freshly started, or deduplicated onto an equivalent
// existing job.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r.Context())
	var spec dist.JobSpec
	if err := reqerr.DecodeStrict(r.Body, &spec); err != nil {
		writeDecodeError(w, err, reqID)
		return
	}
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		s.fail(w, reqID, err)
		return
	}
	view, created, err := s.jobs.Submit(spec)
	switch {
	case errors.Is(err, dist.ErrNotAccepting):
		writeError(w, http.StatusServiceUnavailable, "draining, not accepting jobs", reqID)
		return
	case errors.Is(err, dist.ErrStoreFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, "job store full, retry later", reqID)
		return
	case err != nil:
		s.log.Error("job submit failed", "requestId", reqID, "error", err.Error())
		writeError(w, http.StatusInternalServerError, "internal error", reqID)
		return
	}
	s.metrics.jobEvents.With("submitted").Inc()
	if !created {
		s.metrics.jobEvents.With("deduped").Inc()
	}
	writeJSON(w, http.StatusAccepted, jobSubmitResponse{
		JobID:     view.ID,
		State:     view.State,
		SpecHash:  view.SpecHash,
		Deduped:   !created,
		TraceID:   jobTraceID(&view.Spec),
		RequestID: reqID,
	})
}

// handleJobList lists every retained job, results elided (a figure
// job's result is megabytes; fetch it per id).
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	views := s.jobs.List()
	for i := range views {
		views[i].Result = nil
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

// handleJobGet reports one job: state, unit-merge progress, error or
// result.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	view, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job", requestID(r.Context()))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleJobCancel cancels a job through its context. Pending jobs
// cancel immediately; running jobs stop at the next shard boundary.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	view, ok := s.jobs.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job", requestID(r.Context()))
		return
	}
	s.metrics.jobEvents.With("cancelRequested").Inc()
	writeJSON(w, http.StatusOK, view)
}

// handleShard evaluates one unit range on this instance — the worker
// side of distributed campaigns. The request is resolved once, before a
// pool slot is taken; the slot then materializes what the range needs.
// Shards occupy one pool slot each, so a worker's admission control
// (429 + Retry-After) throttles an eager coordinator, which honors it.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r.Context())
	var req dist.ShardRequest
	if err := reqerr.DecodeStrict(r.Body, &req); err != nil {
		writeDecodeError(w, err, reqID)
		return
	}
	req.Normalize()
	camp, err := req.Resolve()
	if err != nil {
		s.fail(w, reqID, err)
		return
	}

	root := rootSpan(r.Context())
	root.Set(obs.Str("kind", string(req.Kind)), obs.Int("start", req.Start), obs.Int("end", req.End))
	resp, ok := s.runPooled(w, r, func(ctx context.Context) (any, error) {
		// One goroutine: like /v1/sweep, concurrency across shards is
		// the pool's job; one shard occupies exactly one slot.
		sp := root.Child("compute")
		units, err := camp.Run(ctx, 1, req.Start, req.End)
		sp.End()
		if err != nil {
			return nil, err
		}
		for _, u := range units {
			s.metrics.observeSpot(u.Batch)
		}
		out := &dist.ShardResponse{Units: units}
		if req.Trace {
			// Export the compute subtree for the coordinator's stitcher;
			// timestamps stay on this process's monotonic clock.
			if wire := sp.Export(); wire != nil {
				out.Trace = wire
				s.metrics.traceExported.Add(float64(wire.Nodes()))
			}
		}
		s.metrics.shards.Inc()
		return out, nil
	})
	if ok {
		writeJSON(w, http.StatusOK, resp)
	}
}

// runJob is the store's RunFunc: it resolves the job's campaign,
// executes this incarnation through the coordinator — sharded across
// the fleet (static peers + registered workers), or locally without
// any — and merges and shapes the result into the public wire formats.
// Each run records a span tree (root → one span per shard attempt)
// retained in the trace ring under the job's content-addressed trace id.
//
// Every kind resumes: shard results journalled by a previous
// incarnation arrive in run.Shards and are pre-merged, and every newly
// completed shard is journalled through run.CompleteShard, so a
// crash-restarted or drained coordinator re-issues only unacknowledged
// shards. A figure's three family sweeps are one unit enumeration, so
// its shard ranges are job-wide like a sweep's.
func (s *Server) runJob(ctx context.Context, run dist.JobRun) (any, error) {
	spec := run.Spec
	tr := obs.New("job:" + string(spec.Kind))
	tr.SetID(jobTraceID(&spec))
	defer func() {
		tr.EndAll()
		s.traces.Add(tr)
	}()
	out, err := s.executeJob(ctx, run, tr.Root())
	if err != nil {
		s.metrics.jobEvents.With("failed").Inc()
		return nil, err
	}
	s.metrics.jobEvents.With("completed").Inc()
	return out, nil
}

// executeJob resolves, runs and merges one job incarnation.
func (s *Server) executeJob(ctx context.Context, run dist.JobRun, span *obs.Span) (any, error) {
	camp, err := run.Spec.Resolve()
	if err != nil {
		return nil, err
	}
	units, err := s.coord.Run(ctx, camp, dist.RunOptions{
		Span:      span,
		Progress:  run.Progress,
		Completed: run.Shards,
		OnShard:   func(res dist.ShardResult) { run.CompleteShard(res) },
		Epoch:     run.Epoch,
	})
	if err != nil {
		return nil, err
	}
	switch c := camp.Campaign.(type) {
	case *exp.Sweep:
		res, err := c.Merge(units)
		if err != nil {
			return nil, err
		}
		s.metrics.observeSpot(res.Tally)
		return sweepResponseFrom(res, ""), nil
	case *exp.FaultSweep:
		res, err := c.Merge(units)
		if err != nil {
			return nil, err
		}
		return faultSweepResponseFrom(res), nil
	case *exp.FigureSweeps:
		sweeps, err := c.Merge(units)
		if err != nil {
			return nil, err
		}
		out := figureJobResponse{Figure: run.Spec.Figure.Figure}
		for _, res := range sweeps {
			out.Sweeps = append(out.Sweeps, sweepResponseFrom(res, ""))
		}
		return out, nil
	}
	return nil, fmt.Errorf("server: no result format for a %T campaign", camp.Campaign)
}
