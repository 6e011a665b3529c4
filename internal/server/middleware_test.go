package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// logCapture is a concurrency-safe sink for the server's slog output,
// so tests can assert on the structured log lines the middleware
// emits.
type logCapture struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *logCapture) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.Write(p)
}

func (c *logCapture) lines(t *testing.T) []map[string]any {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []map[string]any
	for _, line := range strings.Split(c.buf.String(), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line is not JSON: %v\n%s", err, line)
		}
		out = append(out, m)
	}
	return out
}

// TestRequestIDGenerationAndPropagation: every response carries a
// generated X-Request-Id; IDs are unique per request, match the body's
// requestId field, and appear in the request log line.
func TestRequestIDGenerationAndPropagation(t *testing.T) {
	capture := &logCapture{}
	s := newTestServer(t, Config{
		Workers: 1,
		Logger:  slog.New(slog.NewJSONHandler(capture, nil)),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wfJSON := workflowJSON(t, 15, 9)
	seen := map[string]bool{}
	var lastID string
	for i := 0; i < 3; i++ {
		code, data, hdr := post(t, ts, "/v1/schedule", scheduleBody(t, wfJSON, "heftbudg", 50))
		if code != http.StatusOK {
			t.Fatalf("schedule = %d: %s", code, data)
		}
		id := hdr.Get("X-Request-Id")
		if id == "" {
			t.Fatal("response missing X-Request-Id header")
		}
		if seen[id] {
			t.Fatalf("request ID %q reused", id)
		}
		seen[id] = true
		lastID = id

		var resp scheduleResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.RequestID != id {
			t.Errorf("body requestId %q != header %q", resp.RequestID, id)
		}
	}

	// IDs follow the nonce-sequence shape and land in the log lines.
	if ok, _ := regexp.MatchString(`^[0-9a-f]+-\d{6}$`, lastID); !ok {
		t.Errorf("request ID %q does not match nonce-sequence format", lastID)
	}
	logged := false
	for _, line := range capture.lines(t) {
		if line["msg"] == "request" && line["requestId"] == lastID {
			logged = true
			if line["path"] != "/v1/schedule" {
				t.Errorf("request log has path %v, want /v1/schedule", line["path"])
			}
			if line["status"] != float64(http.StatusOK) {
				t.Errorf("request log has status %v, want 200", line["status"])
			}
		}
	}
	if !logged {
		t.Errorf("no request log line carries ID %s", lastID)
	}
}

// TestPanicRecoveryLogsAndResponds: a panicking handler yields a JSON
// 500 with the request ID, a counted panic, and an error-level log
// line carrying the panic value and a stack trace — and the daemon
// keeps serving afterwards.
func TestPanicRecoveryLogsAndResponds(t *testing.T) {
	capture := &logCapture{}
	s := newTestServer(t, Config{
		Workers: 1,
		Logger:  slog.New(slog.NewJSONHandler(capture, nil)),
	})
	h := s.wrap("boom", func(http.ResponseWriter, *http.Request) { panic("kaboom-for-test") })

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/boom", nil))

	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler returned %d, want 500", rec.Code)
	}
	var e apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("500 body is not the JSON error shape: %v\n%s", err, rec.Body.String())
	}
	if e.Error != "internal error" || e.RequestID == "" {
		t.Errorf("error body = %+v, want internal error with a request ID", e)
	}
	if rec.Header().Get("X-Request-Id") != e.RequestID {
		t.Errorf("header ID %q != body ID %q", rec.Header().Get("X-Request-Id"), e.RequestID)
	}
	if got := s.metrics.reg.Value("budgetwfd_panics_total", ""); got != 1 {
		t.Errorf("panic counter = %v, want 1", got)
	}

	var panicLine map[string]any
	for _, line := range capture.lines(t) {
		if line["msg"] == "handler panic" {
			panicLine = line
		}
	}
	if panicLine == nil {
		t.Fatal("no 'handler panic' log line")
	}
	if panicLine["level"] != "ERROR" {
		t.Errorf("panic logged at level %v, want ERROR", panicLine["level"])
	}
	if panicLine["panic"] != "kaboom-for-test" {
		t.Errorf("panic log value = %v, want the panic message", panicLine["panic"])
	}
	if panicLine["requestId"] != e.RequestID {
		t.Errorf("panic log requestId = %v, want %s", panicLine["requestId"], e.RequestID)
	}
	stack, _ := panicLine["stack"].(string)
	if !strings.Contains(stack, "middleware_test") {
		t.Errorf("panic log stack does not reach the panicking frame: %.120q", stack)
	}

	// The request still produced metrics and the server still serves.
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest("GET", "/boom", nil))
	if got := s.metrics.reg.Value("budgetwfd_panics_total", ""); got != 2 {
		t.Errorf("second panic not counted: %v", got)
	}
	if got := s.metrics.reg.Value("budgetwfd_responses_total", "500"); got != 2 {
		t.Errorf("status 500 count = %v, want 2", got)
	}
}
