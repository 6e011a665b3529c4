package server

import (
	"net/http"
	"net/url"
	"strings"

	"budgetwf/internal/dist"
	"budgetwf/internal/reqerr"
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
	if err := reqerr.DecodeStrict(r.Body, &req); err != nil {
		writeDecodeError(w, err, reqID)
		return
	}
	err := validateWorkerURL(req.URL)
	if err == nil && req.Nonce == "" {
		err = reqerr.Invalid("nonce", "must be non-empty")
	}
	if err != nil {
		s.fail(w, reqID, err)
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
		s.fail(w, reqID, reqerr.Invalid("url", "query parameter required"))
		return
	}
	s.registry.Deregister(target)
	writeJSON(w, http.StatusOK, map[string]any{"deregistered": target, "requestId": reqID})
}

// validateWorkerURL sanity-checks an advertised worker base URL; it
// must be absolute http(s) with a host and no trailing slash the
// coordinator would double.
func validateWorkerURL(raw string) error {
	u, err := url.Parse(raw)
	switch {
	case raw == "":
		return reqerr.Invalid("url", "must be non-empty")
	case err != nil:
		return reqerr.Invalid("url", "not a valid URL: %v", err)
	case u.Scheme != "http" && u.Scheme != "https":
		return reqerr.Invalid("url", "scheme must be http or https")
	case u.Host == "":
		return reqerr.Invalid("url", "must include a host")
	case strings.HasSuffix(raw, "/"):
		return reqerr.Invalid("url", "must not end in a slash")
	}
	return nil
}
