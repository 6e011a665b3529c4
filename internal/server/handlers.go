package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"budgetwf/internal/dist"
	"budgetwf/internal/exp"
	"budgetwf/internal/obs"
	"budgetwf/internal/reqerr"
	"budgetwf/internal/rng"
	"budgetwf/internal/sched"
	"budgetwf/internal/sim"
	"budgetwf/internal/stats"
)

// Request-size ceilings that keep one synchronous request from
// monopolizing the pool; violations are per-field 400s. A sweep's other
// dimensions are bounded by the job spec it is (internal/dist).
const (
	maxReplications = 10000 // /v1/simulate
	maxSweepRuns    = 10    // /v1/sweep instances
)

// handleHealthz is liveness: the process is up and serving.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 503 once draining has begun, so load
// balancers stop routing new work here while in-flight work finishes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining", requestID(r.Context()))
		return
	}
	body := map[string]any{"status": "ready"}
	if s.cfg.JournalPath != "" {
		// Still 200: a daemon that lost durability degrades, it does not
		// stop serving. The journal's durable gauge carries the same bit.
		body["durable"] = s.journalStats().Durable
	}
	writeJSON(w, http.StatusOK, body)
}

// handleAlgorithms lists the registry (the paper's nine plus
// extension baselines), with the budget-blindness flag clients need
// to know which requests require a meaningful budget.
func (s *Server) handleAlgorithms(w http.ResponseWriter, r *http.Request) {
	var out []algorithmInfo
	for _, a := range sched.AllExtended() {
		out = append(out, algorithmInfo{Name: string(a.Name), NeedsBudget: a.NeedsBudget})
	}
	writeJSON(w, http.StatusOK, map[string]any{"algorithms": out})
}

// handleMetrics serves this server's metrics, both renderings from the
// one registry. The default body is the JSON document (the same content
// cmd/budgetwfd publishes under /debug/vars); ?format=prometheus — or
// an Accept header asking for text/plain or OpenMetrics — selects the
// Prometheus text exposition instead. The explicit query parameter wins
// over the header.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", obs.PrometheusContentType)
		s.metrics.reg.WritePrometheus(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	io.WriteString(w, s.metrics.reg.String())
}

// wantsPrometheus decides the /metrics rendering: the format query
// parameter is authoritative when present; otherwise an Accept header
// naming text/plain or an openmetrics media type opts in. Anything
// else — including Accept: */* — keeps the JSON default, so existing
// consumers are unaffected.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus":
		return true
	case "json":
		return false
	}
	accept := strings.ToLower(r.Header.Get("Accept"))
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "openmetrics")
}

// handleSchedule plans one workflow: the daemon's hot endpoint, and
// the cached one. A body that repeats byte for byte is answered from
// its alias without being parsed; any other spelling of a request
// already planned is answered from the content key after decode and
// validation; the rest run the planner.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r.Context())
	deep := traceRequested(r)

	// Only this endpoint buffers its body: it needs the bytes twice (the
	// digest, then the decoder) and they are small next to a plan. The
	// limit is the middleware's MaxBytesReader, so it binds before the
	// digest is taken.
	buf := bodyBuffers.Get().(*bytes.Buffer)
	defer releaseBody(buf)
	if _, err := buf.ReadFrom(r.Body); err != nil {
		writeDecodeError(w, err, reqID)
		return
	}
	// A deep-traced request wants the spans of the full path, and a
	// disabled cache has nothing to alias to.
	aliasing := s.cache.Enabled() && !deep
	var digest bodyDigest
	if aliasing {
		digest = sha256.Sum256(buf.Bytes())
		if e, ok := s.cache.getBody(digest); ok {
			s.metrics.algorithms.With(e.algorithm).Inc()
			rootSpan(r.Context()).Set(obs.Str("algorithm", e.algorithm))
			writeHit(w, r, e, true, nil)
			return
		}
	}

	// One pass decodes the envelope and the workflow together; a body it
	// declines is decoded strictly, then its workflow.
	var req scheduleRequest
	wfl, ok := decodeScheduleFast(buf.Bytes(), &req)
	if !ok {
		if err := reqerr.DecodeStrict(bytes.NewReader(buf.Bytes()), &req); err != nil {
			writeDecodeError(w, err, reqID)
			return
		}
		var err error
		if wfl, err = parseWorkflow(req.Workflow); err != nil {
			s.fail(w, reqID, err)
			return
		}
	}
	plat, err := resolvePlatform(req.Platform, req.Market)
	if err != nil {
		s.fail(w, reqID, err)
		return
	}
	alg, err := sched.ByName(sched.Name(req.Algorithm))
	if err != nil {
		s.fail(w, reqID, reqerr.Under("algorithm", err))
		return
	}
	if err := checkNonNegative("budget", req.Budget); err != nil {
		s.fail(w, reqID, err)
		return
	}
	s.metrics.algorithms.With(req.Algorithm).Inc()

	root := rootSpan(r.Context())
	root.Set(obs.Str("algorithm", req.Algorithm))

	key := cacheKey(wfl, plat, req.Algorithm, req.Budget)
	if e, ok := s.cache.get(key); ok {
		if aliasing {
			s.cache.aliasBody(key, digest)
		}
		var inline *obs.Trace
		if deep {
			inline = requestTrace(r.Context())
		}
		writeHit(w, r, e, false, inline)
		return
	}
	root.Event("cache-miss", obs.Str("algorithm", req.Algorithm))

	resp, ok := s.runPooled(w, r, func(ctx context.Context) (any, error) {
		start := time.Now()
		planSpan := root.Child("plan")
		if deep {
			// Deep tracing: the planner emits its per-task decision trace
			// (candidate evaluations, budget-guard verdicts, refinement
			// upgrades) under this span.
			ctx = obs.WithSpan(ctx, planSpan)
		}
		schedule, err := sched.PlanContext(ctx, alg.Name, wfl, plat, req.Budget)
		planSpan.End()
		if err != nil {
			return nil, err
		}
		// The planner's own estimates are heuristic; the deterministic
		// simulation is the authoritative conservative-weight outcome.
		simSpan := root.Child("simulate-deterministic")
		det, err := sim.RunDeterministic(wfl, plat, schedule)
		simSpan.End()
		if err != nil {
			return nil, err
		}
		var plan bytes.Buffer
		if err := schedule.WriteJSON(&plan); err != nil {
			return nil, err
		}
		resp := scheduleResponse{
			Algorithm:   req.Algorithm,
			Budget:      req.Budget,
			Schedule:    json.RawMessage(plan.Bytes()),
			NumVMs:      schedule.NumVMs(),
			EstMakespan: det.Makespan,
			EstCost:     det.TotalCost,
			RequestID:   reqID,
		}
		head, err := renderHit(resp)
		if err != nil {
			return nil, err
		}
		s.cache.put(&cacheEntry{key: key, algorithm: req.Algorithm, head: head})
		resp.PlanMillis = float64(time.Since(start)) / float64(time.Millisecond)
		return resp, nil
	})
	if ok {
		if aliasing {
			// Only now has the full path vouched for these bytes.
			s.cache.aliasBody(key, digest)
		}
		if deep {
			resp = attachTrace(resp, requestTrace(r.Context()))
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// bodyBuffers recycles /v1/schedule's request-body buffers.
var bodyBuffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBody keeps one rare huge request from pinning its buffer in
// the pool for good.
const maxPooledBody = 1 << 20

func releaseBody(buf *bytes.Buffer) {
	if buf.Cap() <= maxPooledBody {
		buf.Reset()
		bodyBuffers.Put(buf)
	}
}

// renderHit renders the response every later hit on this plan gets —
// cached, no plan time — up to and including the opening quote of the
// requestId value, the only part that differs between hits.
func renderHit(resp scheduleResponse) ([]byte, error) {
	resp.Cached, resp.PlanMillis, resp.RequestID = true, 0, ""
	b, err := json.Marshal(resp)
	if err != nil {
		return nil, err
	}
	// requestId is the last field (the trace is omitted when nil), so
	// the document ends `"requestId":""}`.
	return b[:len(b)-len(`"}`)], nil
}

// writeHit answers from a cache entry: the one writer of body-alias
// hits (fast) and content-key hits, which therefore differ only in
// the request id. Request ids are hex digits and a dash and need no
// escaping. inline, when non-nil, is the deep-traced request's own
// trace, appended as the trace field.
func writeHit(w http.ResponseWriter, r *http.Request, e *cacheEntry, fast bool, inline *obs.Trace) {
	rootSpan(r.Context()).Event("cache-hit", obs.Str("algorithm", e.algorithm), obs.Bool("fast", fast))
	tail := "\"}\n"
	if inline != nil {
		if tree, err := json.Marshal(inline.Tree()); err == nil {
			tail = `","trace":` + string(tree) + "}\n"
		}
	}
	id := requestID(r.Context())
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(e.head)+len(id)+len(tail)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(e.head)
	_, _ = io.WriteString(w, id)
	_, _ = io.WriteString(w, tail)
}

// handleSimulate replays a plan and summarizes the replications:
// decode, validate, exp.Replay (which picks the back end — DESIGN §2,
// "One replication loop"), render.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r.Context())
	var req simulateRequest
	if err := reqerr.DecodeStrict(r.Body, &req); err != nil {
		writeDecodeError(w, err, reqID)
		return
	}
	wfl, err := parseWorkflow(req.Workflow)
	if err != nil {
		s.fail(w, reqID, err)
		return
	}
	plat, err := resolvePlatform(req.Platform, req.Market)
	if err != nil {
		s.fail(w, reqID, err)
		return
	}
	schedule, err := parseSchedule(req.Schedule, wfl, plat)
	if err != nil {
		s.fail(w, reqID, err)
		return
	}
	if err := checkNonNegative("budget", req.Budget); err != nil {
		s.fail(w, reqID, err)
		return
	}
	if err := checkNonNegative("timeoutMillis", req.TimeoutMillis); err != nil {
		s.fail(w, reqID, err)
		return
	}
	reps := req.Replications
	if reps == 0 {
		reps = exp.DefaultReps
	}
	estimator := req.Estimator
	if estimator == "" {
		estimator = exp.EstimatorMC
	}
	// The weight streams do not depend on faults, so a zero fault spec
	// reproduces the plain response; each replication gets a fresh fault
	// trace, seeded from the spec's seed or, without a spec, the request's.
	replay := exp.Replay{
		Workflow: wfl, Platform: plat, Schedule: schedule,
		Budget: req.Budget, Reps: reps, Estimator: estimator, Faults: req.Faults,
		Weights: rng.New(req.Seed), FaultSeed: req.Seed,
	}
	err = replay.Check()
	if err == nil && reps > maxReplications {
		err = reqerr.Invalid("replications", "must be in [1, %d]", maxReplications)
	}
	if err != nil {
		s.fail(w, reqID, err)
		return
	}
	s.metrics.estimators.With(estimator).Inc()

	root := rootSpan(r.Context())
	root.Set(obs.Str("estimator", estimator))
	deep := traceRequested(r)
	// Spot revocation hazards superpose onto the explicit fault spec: a
	// platform with revocable spot categories injects faults even when the
	// request carries none of its own.
	injects := replay.Injects()

	resp, ok := s.runPooledTimeout(w, r, s.requestTimeout(req.TimeoutMillis), func(ctx context.Context) (any, error) {
		var span *obs.Span
		if estimator == exp.EstimatorAnalytic {
			span = root.Child("estimate-analytic")
			span.Set(obs.Int("replications", reps))
		} else {
			span = root.Child("simulate-batch")
			span.Set(obs.Int("replications", reps), obs.Bool("faults", injects))
		}
		defer span.End()
		if deep {
			// Deep tracing: one replication child span per execution.
			replay.Span = span
		}
		b, err := replay.Run(ctx)
		if err != nil {
			return nil, err
		}
		s.metrics.observeSpot(b)
		n := float64(b.Reps)
		out := simulateResponse{
			Replications: b.Reps,
			Makespan:     toSummaryJSON(stats.Summarize(b.Makespans)),
			Cost:         toSummaryJSON(stats.Summarize(b.Costs)),
			ValidFrac:    b.Frac(b.InBudget),
			Budget:       req.Budget,
			RequestID:    reqID,
		}
		if req.Faults != nil {
			out.Faults = &faultSummaryJSON{
				SuccessRate:            b.Frac(b.Completed),
				Completed:              b.Completed,
				CrashesPerRun:          b.Frac(b.Crashes),
				BootFailuresPerRun:     b.Frac(b.BootFailures),
				TaskFailuresPerRun:     b.Frac(b.TaskFailures),
				RecoveriesPerRun:       b.Frac(b.Recoveries),
				RecoveriesVetoedPerRun: b.Frac(b.Vetoed),
				WastedSecondsPerRun:    b.WastedSeconds / n,
			}
		}
		// Where nothing can take a spot VM away, the bookings are part of
		// the plan, not an outcome: no spot section.
		if injects && plat.HasSpot() {
			out.Spot = &spotSummaryJSON{
				SuccessRate:       b.Frac(b.Completed),
				Completed:         b.Completed,
				SpotVMsPerRun:     b.Frac(b.SpotVMs),
				RevocationsPerRun: b.Frac(b.Revocations),
				SpotCostPerRun:    b.SpotCost / n,
				ReworkCostPerRun:  b.ReworkCost / n,
			}
		}
		return out, nil
	})
	if ok {
		if deep {
			resp = attachTrace(resp, requestTrace(r.Context()))
		}
		writeJSON(w, http.StatusOK, resp)
	}
}

// handleSweep runs a Figure-1-style budget sweep over generated
// instances of one workflow family. The body is the sweep object of a
// job (dist.SweepSpec), validated by the same code, with one
// difference: a synchronous sweep holds a connection and a pool slot for
// its whole run — Workers=1 inside the harness, so exactly one slot —
// and takes fewer instances; larger campaigns go to /v1/jobs.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r.Context())
	var spec dist.SweepSpec
	if err := reqerr.DecodeStrict(r.Body, &spec); err != nil {
		writeDecodeError(w, err, reqID)
		return
	}
	spec.Normalize()
	sc, algs, gridK, err := spec.Scenario()
	if err == nil && spec.Instances > maxSweepRuns {
		err = reqerr.Invalid("instances", "must be in [1, %d] on /v1/sweep; submit larger sweeps to /v1/jobs", maxSweepRuns)
	}
	if err != nil {
		s.fail(w, reqID, err)
		return
	}
	s.metrics.estimators.With(spec.Estimator).Inc()
	rootSpan(r.Context()).Set(obs.Str("estimator", spec.Estimator))

	sc.Workers = 1 // concurrency is the pool's job, not the sweep's
	resp, ok := s.runPooled(w, r, func(ctx context.Context) (any, error) {
		res, err := exp.RunSweepCtx(ctx, sc, algs, gridK)
		if err != nil {
			return nil, err
		}
		s.metrics.observeSpot(res.Tally)
		return sweepResponseFrom(res, reqID), nil
	})
	if ok {
		writeJSON(w, http.StatusOK, resp)
	}
}

// requestTimeout resolves the effective processing deadline of one
// request: the server-wide limit, tightened — never extended — by a
// positive client-supplied timeoutMillis.
func (s *Server) requestTimeout(timeoutMillis float64) time.Duration {
	d := s.cfg.RequestTimeout
	if timeoutMillis > 0 {
		req := time.Duration(timeoutMillis * float64(time.Millisecond))
		if d <= 0 || req < d {
			d = req
		}
	}
	return d
}

// runPooled executes fn on the worker pool under the server-wide
// request timeout and translates the admission/cancellation outcomes
// to HTTP. It returns (response, true) when fn completed and the
// response should be written, and (nil, false) when runPooled already
// wrote an error (or the client is gone and nothing should be
// written).
func (s *Server) runPooled(w http.ResponseWriter, r *http.Request, fn func(ctx context.Context) (any, error)) (any, bool) {
	return s.runPooledTimeout(w, r, s.cfg.RequestTimeout, fn)
}

// runPooledTimeout is runPooled under an explicit timeout (≤ 0 means
// no deadline).
func (s *Server) runPooledTimeout(w http.ResponseWriter, r *http.Request, timeout time.Duration, fn func(ctx context.Context) (any, error)) (any, bool) {
	reqID := requestID(r.Context())
	ctx := r.Context()
	cancel := context.CancelFunc(func() {})
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
	}
	defer cancel()

	type outcome struct {
		resp any
		err  error
	}
	done := make(chan outcome, 1) // buffered: the worker never blocks on a gone client
	if !s.pool.trySubmit(func() {
		resp, err := fn(ctx)
		done <- outcome{resp, err}
	}) {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, "server overloaded, retry later", reqID)
		return nil, false
	}

	select {
	case o := <-done:
		if o.err != nil {
			s.fail(w, reqID, o.err)
			return nil, false
		}
		return o.resp, true
	case <-ctx.Done():
		// Deadline or disconnect while the job is still queued or
		// running; the job observes the same context and exits promptly
		// into the buffered channel.
		s.fail(w, reqID, ctx.Err())
		return nil, false
	}
}

// fail answers a request that cannot be served because of err — the one
// place an error becomes a status. A validation error (*reqerr.Error,
// whichever package validated) is a 400 when a scalar is outside its
// domain and a 422 when well-formed input describes something unusable;
// an expired deadline is a 504; a client that went away gets nothing;
// anything else is logged and answered 500.
func (s *Server) fail(w http.ResponseWriter, reqID string, err error) {
	var invalid *reqerr.Error
	switch {
	case errors.As(err, &invalid):
		status := http.StatusBadRequest
		if invalid.Semantic {
			status = http.StatusUnprocessableEntity
		}
		writeError(w, status, err.Error(), reqID)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "request timed out", reqID)
	case errors.Is(err, context.Canceled):
		// Client went away; nothing useful to write.
	default:
		s.log.Error("request failed", "requestId", reqID, "error", err.Error())
		writeError(w, http.StatusInternalServerError, "internal error", reqID)
	}
}

// retryAfterSeconds estimates how long a rejected client should back
// off: roughly one queue drain at the current depth, clamped to
// [1, 30] seconds.
func (s *Server) retryAfterSeconds() int {
	secs := (s.pool.queueDepth() + s.cfg.Workers) / s.cfg.Workers
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// writeJSON emits v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
