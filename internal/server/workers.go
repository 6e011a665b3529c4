package server

import (
	"net/http"
	"net/url"
	"strings"

	"budgetwf/internal/dist"
)

// Dynamic worker membership (the coordinator side):
//
//	POST   /v1/workers        register or heartbeat a worker
//	GET    /v1/workers        list registered workers and their health
//	DELETE /v1/workers?url=…  deregister a worker (clean shutdown)
//
// Workers announce themselves with their advertised base URL and a
// per-process nonce (dist.Heartbeat does this on an interval); the
// registry marks workers suspect after a missed TTL and forgets them
// after 3×TTL. The coordinator consults the live set on every shard
// dispatch, so membership changes take effect mid-sweep.

// handleWorkerRegister records a registration/heartbeat.
func (s *Server) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r.Context())
	var req dist.RegisterRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeDecodeError(w, err, reqID)
		return
	}
	if err := validateWorkerURL(req.URL); err != "" {
		writeError(w, http.StatusBadRequest, "url: "+err, reqID)
		return
	}
	if req.Nonce == "" {
		writeError(w, http.StatusBadRequest, "nonce: must be non-empty", reqID)
		return
	}
	info := s.registry.Register(req.URL, req.Nonce)
	writeJSON(w, http.StatusOK, map[string]any{
		"worker":     info,
		"ttlSeconds": s.registry.TTL().Seconds(),
		"requestId":  reqID,
	})
}

// handleWorkerList reports every known worker, live and suspect.
func (s *Server) handleWorkerList(w http.ResponseWriter, r *http.Request) {
	workers := s.registry.Snapshot()
	live, suspect := 0, 0
	for _, wk := range workers {
		if wk.State == dist.WorkerLive {
			live++
		} else {
			suspect++
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"workers": workers,
		"live":    live,
		"suspect": suspect,
	})
}

// handleWorkerDeregister removes a worker immediately.
func (s *Server) handleWorkerDeregister(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r.Context())
	target := r.URL.Query().Get("url")
	if target == "" {
		writeError(w, http.StatusBadRequest, "url: query parameter required", reqID)
		return
	}
	s.registry.Deregister(target)
	writeJSON(w, http.StatusOK, map[string]any{"deregistered": target, "requestId": reqID})
}

// validateWorkerURL sanity-checks an advertised worker base URL; it
// must be absolute http(s) with a host and no trailing slash the
// coordinator would double.
func validateWorkerURL(raw string) string {
	if raw == "" {
		return "must be non-empty"
	}
	u, err := url.Parse(raw)
	if err != nil {
		return "not a valid URL: " + err.Error()
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "scheme must be http or https"
	}
	if u.Host == "" {
		return "must include a host"
	}
	if strings.HasSuffix(raw, "/") {
		return "must not end in a slash"
	}
	return ""
}
