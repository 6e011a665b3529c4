package server

import (
	"context"
	"net/http"

	"budgetwf/internal/obs"
)

// traceKey carries the per-request trace through the handler chain.
type traceKey struct{}

// requestTrace returns the trace the middleware opened for this
// request; nil outside the middleware stack (and in tests hitting
// handlers directly), which disables all downstream instrumentation
// via the nil-span fast path.
func requestTrace(ctx context.Context) *obs.Trace {
	t, _ := ctx.Value(traceKey{}).(*obs.Trace)
	return t
}

// rootSpan returns the request trace's root span, or nil.
func rootSpan(ctx context.Context) *obs.Span {
	if t := requestTrace(ctx); t != nil {
		return t.Root()
	}
	return nil
}

// traceRequested reports whether the client asked for the span tree
// inline in the response (?trace=1). It also switches the planner and
// simulator to deep tracing for this request.
func traceRequested(r *http.Request) bool {
	if r.URL.RawQuery == "" {
		return false // the usual case, without building the query map
	}
	switch r.URL.Query().Get("trace") {
	case "1", "true":
		return true
	}
	return false
}

// ringEndpoints names the endpoints whose traces are retained in the
// ring for GET /v1/traces/{id}; probe endpoints would only evict the
// interesting ones.
var ringEndpoints = map[string]bool{
	"schedule": true,
	"simulate": true,
	"sweep":    true,
	"submit":   true,
	// shards makes a worker's ring a local flight recorder: each shard
	// it computed stays queryable (keyed by the coordinator's trace id)
	// even after the coordinator forgot the job.
	"shards": true,
}

// handleTraceList serves GET /v1/traces: the retained request IDs,
// most recent first.
func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	ids := s.traces.IDs()
	if ids == nil {
		ids = []string{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": ids})
}

// handleTraceGet serves GET /v1/traces/{id}: the stored span tree of
// a recent request. ?format=chrome returns the Chrome trace-event
// document instead — for a stitched job trace it renders one swimlane
// per worker (see obs.ChromeTrace).
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	tr, ok := s.traces.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no trace retained for request "+id, requestID(r.Context()))
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		if err := tr.WriteChrome(w); err != nil {
			s.log.Error("writing chrome trace", "error", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, tr.Tree())
}

// attachTrace adds the request's span tree to a schedule/simulate
// response when the client asked for it.
func attachTrace(resp any, tr *obs.Trace) any {
	if tr == nil {
		return resp
	}
	switch v := resp.(type) {
	case scheduleResponse:
		v.Trace = tr.Tree()
		return v
	case simulateResponse:
		v.Trace = tr.Tree()
		return v
	}
	return resp
}
