package server

import (
	"context"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"budgetwf/internal/obs"
)

// requestIDKey is the context key under which the request ID travels.
type requestIDKey struct{}

// requestID returns the ID the middleware assigned to this request.
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// statusRecorder captures the status code a handler wrote, for the
// structured log line and the per-status metrics.
type statusRecorder struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.status = code
		r.wrote = true
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if !r.wrote {
		r.status = http.StatusOK
		r.wrote = true
	}
	return r.ResponseWriter.Write(b)
}

// wrap applies the standard middleware stack to one endpoint handler:
// request-ID assignment, body-size bounding, panic isolation (a
// panicking handler produces a 500 and a log line, never a crashed
// daemon), structured request logging, and latency/status metrics.
func (s *Server) wrap(endpoint string, h http.HandlerFunc) http.Handler {
	requests, latency := s.metrics.requests.With(endpoint), s.metrics.latency.With(endpoint)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := s.nextRequestID()
		ctx := context.WithValue(r.Context(), requestIDKey{}, id)
		// Every request gets a root span (a handful of nodes unless the
		// handler opted into deep tracing); only the heavy endpoints'
		// traces are retained in the ring.
		tr := obs.New(endpoint)
		tr.SetID(id)
		root := tr.Root()
		root.Set(obs.Str("requestId", id), obs.Str("method", r.Method),
			obs.Str("path", r.URL.Path))
		if rc, ok := obs.Extract(r.Header); ok {
			// A coordinator sent its span context: record the linkage and
			// key the local trace by it, so this worker's flight-recorder
			// ring is greppable by the originating job trace.
			root.Set(obs.Str("parentTrace", rc.TraceID),
				obs.Int("parentSpan", rc.SpanID), obs.Int("epoch", rc.Epoch))
			tr.SetID(rc.TraceID + "." + strconv.Itoa(rc.SpanID) + "." + id)
		}
		ctx = context.WithValue(ctx, traceKey{}, tr)
		r = r.WithContext(ctx)
		w.Header().Set("X-Request-Id", id)
		if r.Body != nil && s.cfg.MaxBodyBytes > 0 {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}

		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			if p := recover(); p != nil {
				s.metrics.panics.Inc()
				s.log.Error("handler panic",
					"requestId", id, "endpoint", endpoint,
					"panic", fmt.Sprint(p), "stack", string(debug.Stack()))
				if !rec.wrote {
					writeError(rec, http.StatusInternalServerError, "internal error", id)
				}
			}
			d := time.Since(start)
			requests.Inc()
			s.metrics.status(rec.status).Inc()
			latency.Observe(d)
			root.Set(obs.Int("status", rec.status))
			tr.EndAll()
			if ringEndpoints[endpoint] {
				s.traces.Add(tr)
			}
			tr.Log(s.log)
			s.log.Info("request",
				"requestId", id,
				"method", r.Method,
				"path", r.URL.Path,
				"status", rec.status,
				"durationMs", float64(d)/float64(time.Millisecond),
				"remote", r.RemoteAddr)
		}()
		h(rec, r)
	})
}

// nextRequestID returns a process-unique request identifier: a
// per-server nonce plus a sequence number.
func (s *Server) nextRequestID() string {
	return fmt.Sprintf("%s-%06d", s.nonce, s.reqSeq.Add(1))
}

// writeError emits the uniform JSON error body.
func writeError(w http.ResponseWriter, status int, msg, reqID string) {
	writeJSON(w, status, apiError{Error: msg, RequestID: reqID})
}
