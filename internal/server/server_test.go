package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"budgetwf/internal/plan"
	"budgetwf/internal/sched"
	"budgetwf/internal/wfgen"
)

// newTestServer builds a quiet Server and registers shutdown cleanup.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// workflowJSON renders a generated Montage instance in the wire format.
func workflowJSON(t testing.TB, n int, seed uint64) json.RawMessage {
	t.Helper()
	return familyWorkflowJSON(t, wfgen.Montage, n, seed)
}

// familyWorkflowJSON renders a generated instance of any family in the
// wire format.
func familyWorkflowJSON(t testing.TB, typ wfgen.Type, n int, seed uint64) json.RawMessage {
	t.Helper()
	w, err := wfgen.Generate(typ, n, seed)
	if err != nil {
		t.Fatalf("generate %s workflow: %v", typ, err)
	}
	var buf bytes.Buffer
	if err := w.WithSigmaRatio(0.5).WriteJSON(&buf); err != nil {
		t.Fatalf("render workflow: %v", err)
	}
	return buf.Bytes()
}

// scheduleBody builds a /v1/schedule request body.
func scheduleBody(t testing.TB, wfJSON json.RawMessage, alg string, budget float64) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"workflow":  wfJSON,
		"algorithm": alg,
		"budget":    budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// post issues a POST and returns the status and decoded-at-will body.
func post(t *testing.T, ts *httptest.Server, path string, body []byte) (int, []byte, http.Header) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, data, resp.Header
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, data
}

func TestHealthAndReadiness(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := get(t, ts, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", code)
	}
	if code, _ := get(t, ts, "/readyz"); code != http.StatusOK {
		t.Fatalf("readyz = %d, want 200", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if code, _ := get(t, ts, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz after shutdown = %d, want 503", code)
	}
	// Liveness stays green while draining.
	if code, _ := get(t, ts, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after shutdown = %d, want 200", code)
	}
}

func TestAlgorithmsEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, body := get(t, ts, "/v1/algorithms")
	if code != http.StatusOK {
		t.Fatalf("algorithms = %d, want 200", code)
	}
	var out struct {
		Algorithms []algorithmInfo `json:"algorithms"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if want := len(sched.AllExtended()); len(out.Algorithms) != want {
		t.Fatalf("got %d algorithms, want %d", len(out.Algorithms), want)
	}
	names := map[string]bool{}
	for _, a := range out.Algorithms {
		names[a.Name] = true
	}
	for _, want := range []string{"heft", "heftbudg", "minmin", "peft"} {
		if !names[want] {
			t.Errorf("algorithm %q missing from listing", want)
		}
	}
}

func TestScheduleHappyPathAndCache(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := scheduleBody(t, workflowJSON(t, 20, 7), "heftbudg", 50)

	code, data, hdr := post(t, ts, "/v1/schedule", body)
	if code != http.StatusOK {
		t.Fatalf("schedule = %d, body %s", code, data)
	}
	if hdr.Get("X-Request-Id") == "" {
		t.Error("missing X-Request-Id header")
	}
	var first scheduleResponse
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if first.Cached {
		t.Error("first request reported cached")
	}
	if first.NumVMs < 1 || first.EstMakespan <= 0 || first.EstCost <= 0 {
		t.Errorf("implausible plan: vms=%d makespan=%v cost=%v",
			first.NumVMs, first.EstMakespan, first.EstCost)
	}
	// The schedule fragment must be a valid plan document.
	if _, err := plan.ReadJSON(bytes.NewReader(first.Schedule)); err != nil {
		t.Fatalf("returned schedule does not parse: %v", err)
	}

	code, data, _ = post(t, ts, "/v1/schedule", body)
	if code != http.StatusOK {
		t.Fatalf("second schedule = %d", code)
	}
	var second scheduleResponse
	if err := json.Unmarshal(data, &second); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !second.Cached {
		t.Error("identical repeat request was not served from cache")
	}
	if second.EstMakespan != first.EstMakespan || second.EstCost != first.EstCost {
		t.Errorf("cached response diverges: %v/%v vs %v/%v",
			second.EstMakespan, second.EstCost, first.EstMakespan, first.EstCost)
	}
	if got := s.metrics.reg.Value("budgetwfd_cache_hits_total", ""); got != 1 {
		t.Errorf("cache hits = %v, want 1", got)
	}

	// The hit is visible through the expvar JSON too.
	code, metrics := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	var mv struct {
		Cache struct {
			Hits    uint64  `json:"hits"`
			HitRate float64 `json:"hitRate"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(metrics, &mv); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if mv.Cache.Hits != 1 {
		t.Errorf("expvar cache.hits = %d, want 1", mv.Cache.Hits)
	}
	if mv.Cache.HitRate <= 0 {
		t.Errorf("expvar cache.hitRate = %v, want > 0", mv.Cache.HitRate)
	}
}

// TestMetricsCacheDisabledServer: a cache-off server (CacheSize -1)
// must report enabled=false with zero hit/miss counters even under
// schedule traffic — not a misleading 0% hit rate over nonzero
// lookups — and must not alias the bodies it sees.
func TestMetricsCacheDisabledServer(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, CacheSize: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := scheduleBody(t, workflowJSON(t, 20, 7), "heftbudg", 50)
	for i := 0; i < 2; i++ {
		code, data, _ := post(t, ts, "/v1/schedule", body)
		if code != http.StatusOK {
			t.Fatalf("schedule = %d, body %s", code, data)
		}
		var resp scheduleResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if resp.Cached {
			t.Error("cache-disabled server served a cached response")
		}
	}

	code, metrics := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	var mv struct {
		Cache struct {
			Enabled bool    `json:"enabled"`
			Hits    uint64  `json:"hits"`
			Misses  uint64  `json:"misses"`
			HitRate float64 `json:"hitRate"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(metrics, &mv); err != nil {
		t.Fatalf("metrics JSON: %v", err)
	}
	if mv.Cache.Enabled {
		t.Error("expvar cache.enabled = true, want false")
	}
	if mv.Cache.Hits != 0 || mv.Cache.Misses != 0 {
		t.Errorf("expvar cache hits/misses = %d/%d, want 0/0 on a disabled cache",
			mv.Cache.Hits, mv.Cache.Misses)
	}
	if s.cache.stats().Aliases != 0 || s.metrics.reg.Value("budgetwfd_cache_body_hits_total", "") != 0 {
		t.Errorf("disabled cache: %v aliases, %v body hits, want none",
			s.cache.stats().Aliases, s.metrics.reg.Value("budgetwfd_cache_body_hits_total", ""))
	}
}

// malformedScheduleBodies are /v1/schedule bodies the strict decoder
// refuses.
var malformedScheduleBodies = map[string]string{
	"truncated":     `{"workflow":`,
	"not JSON":      `planning, please`,
	"unknown field": `{"workflow": {}, "algorithm": "heft", "budge": 3}`,
	"trailing":      `{"algorithm": "heft"} {"again": true}`,
	"trailing }":    `{"algorithm": "heft"}}`,
	"trailing ]":    `{"algorithm": "heft"}]`,
}

func TestScheduleMalformedJSONIs400(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for name, body := range malformedScheduleBodies {
		code, data, _ := post(t, ts, "/v1/schedule", []byte(body))
		if code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", name, code, data)
		}
		var e apiError
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not apiError JSON: %s", name, data)
		}
	}
}

func TestScheduleSemanticErrorsAre422(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Edges reference tasks by index in the wire format; 0→1→0 cycles.
	cyclic := `{
		"name": "cycle",
		"tasks": [{"name": "a", "mean": 1}, {"name": "b", "mean": 1}],
		"edges": [{"from": 0, "to": 1, "size": 1}, {"from": 1, "to": 0, "size": 1}]
	}`
	good := workflowJSON(t, 15, 3)

	cases := map[string][]byte{
		"cyclic DAG":        scheduleBody(t, json.RawMessage(cyclic), "heft", 10),
		"unknown algorithm": scheduleBody(t, good, "speedy-mc-schedule-face", 10),
		"missing workflow":  []byte(`{"algorithm": "heft", "budget": 5}`),
	}
	for name, body := range cases {
		code, data, _ := post(t, ts, "/v1/schedule", body)
		if code != http.StatusUnprocessableEntity {
			t.Errorf("%s: status = %d, want 422 (body %s)", name, code, data)
		}
	}

	// A budget outside the field's domain is a malformed value: 400.
	code, data, _ := post(t, ts, "/v1/schedule", scheduleBody(t, good, "heftbudg", -4))
	if code != http.StatusBadRequest {
		t.Errorf("negative budget: status = %d, want 400 (body %s)", code, data)
	}
}

func TestSimulateRoundTrip(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wfJSON := workflowJSON(t, 15, 11)
	code, data, _ := post(t, ts, "/v1/schedule", scheduleBody(t, wfJSON, "heftbudg", 50))
	if code != http.StatusOK {
		t.Fatalf("schedule = %d: %s", code, data)
	}
	var planned scheduleResponse
	if err := json.Unmarshal(data, &planned); err != nil {
		t.Fatal(err)
	}

	simBody, _ := json.Marshal(map[string]any{
		"workflow":     wfJSON,
		"schedule":     planned.Schedule,
		"replications": 10,
		"seed":         42,
		"budget":       50,
	})
	code, data, _ = post(t, ts, "/v1/simulate", simBody)
	if code != http.StatusOK {
		t.Fatalf("simulate = %d: %s", code, data)
	}
	var sim simulateResponse
	if err := json.Unmarshal(data, &sim); err != nil {
		t.Fatal(err)
	}
	if sim.Replications != 10 || sim.Makespan.N != 10 {
		t.Errorf("replications = %d / makespan.n = %d, want 10", sim.Replications, sim.Makespan.N)
	}
	if sim.Makespan.Mean <= 0 || sim.Cost.Mean <= 0 {
		t.Errorf("implausible aggregates: %+v", sim)
	}
	if sim.ValidFrac < 0 || sim.ValidFrac > 1 {
		t.Errorf("validFrac = %v out of [0,1]", sim.ValidFrac)
	}

	// A schedule that does not fit the posted workflow is semantic: 422.
	mismatched, _ := json.Marshal(map[string]any{
		"workflow": workflowJSON(t, 12, 1),
		"schedule": planned.Schedule,
	})
	code, data, _ = post(t, ts, "/v1/simulate", mismatched)
	if code != http.StatusUnprocessableEntity {
		t.Errorf("mismatched schedule = %d, want 422 (body %s)", code, data)
	}
}

func TestSweepSmall(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{
		"workflowType": "montage",
		"n":            15,
		"gridK":        2,
		"instances":    1,
		"replications": 2,
		"algorithms":   []string{"heft", "heftbudg"},
	})
	code, data, _ := post(t, ts, "/v1/sweep", body)
	if code != http.StatusOK {
		t.Fatalf("sweep = %d: %s", code, data)
	}
	var out sweepResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Series) != 2 {
		t.Fatalf("got %d series, want 2", len(out.Series))
	}
	for _, series := range out.Series {
		if len(series.Points) != 2 {
			t.Errorf("%s: %d points, want 2", series.Algorithm, len(series.Points))
		}
	}
	if out.MinCostBudget <= 0 {
		t.Errorf("minCostBudget = %v, want > 0", out.MinCostBudget)
	}
}

func TestSweepValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Semantic violations are 422s; scalar-domain violations (every
	// dimension over its ceiling) are per-field 400s.
	cases := map[string]struct {
		body map[string]any
		want int
	}{
		"unknown type":  {map[string]any{"workflowType": "escher", "n": 10}, http.StatusUnprocessableEntity},
		"n too small":   {map[string]any{"workflowType": "montage", "n": 2}, http.StatusBadRequest},
		"n too large":   {map[string]any{"workflowType": "montage", "n": 100000}, http.StatusBadRequest},
		"bad alg":       {map[string]any{"workflowType": "montage", "n": 15, "algorithms": []string{"nope"}}, http.StatusUnprocessableEntity},
		"reps too big":  {map[string]any{"workflowType": "montage", "n": 15, "replications": 100000}, http.StatusBadRequest},
		"gridK too big": {map[string]any{"workflowType": "montage", "n": 15, "gridK": 100000}, http.StatusBadRequest},
	}
	for name, tc := range cases {
		body, _ := json.Marshal(tc.body)
		code, data, _ := post(t, ts, "/v1/sweep", body)
		if code != tc.want {
			t.Errorf("%s: status = %d, want %d (body %s)", name, code, tc.want, data)
		}
	}
}

// blockPool occupies n pool slots (worker or queue) with jobs that
// wait on the returned release function. Submission retries briefly:
// an unbuffered queue only admits once a worker goroutine has reached
// its receive. The release is also registered as a cleanup so a later
// test failure cannot deadlock the pool drain.
func blockPool(t *testing.T, s *Server, n int) (release func()) {
	t.Helper()
	ch := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(ch) }) }
	t.Cleanup(release)
	for i := 0; i < n; i++ {
		submitted := false
		for try := 0; try < 1000 && !submitted; try++ {
			if submitted = s.pool.trySubmit(func() { <-ch }); !submitted {
				time.Sleep(time.Millisecond)
			}
		}
		if !submitted {
			t.Fatalf("could not occupy pool slot %d", i)
		}
	}
	return release
}

func TestQueueFullIs429WithRetryAfter(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: -1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	release := blockPool(t, s, 1) // the only worker is busy, no queue
	defer release()

	code, data, hdr := post(t, ts, "/v1/schedule",
		scheduleBody(t, workflowJSON(t, 15, 2), "heft", 0))
	if code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (body %s)", code, data)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	var e apiError
	if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
		t.Errorf("429 body not apiError JSON: %s", data)
	}
}

func TestRequestTimeoutIs504(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RequestTimeout: 30 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	release := blockPool(t, s, 1) // job will sit in the queue past the deadline
	defer release()

	code, data, _ := post(t, ts, "/v1/schedule",
		scheduleBody(t, workflowJSON(t, 15, 2), "heft", 0))
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", code, data)
	}
}

func TestClientGoneProducesNo500(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	release := blockPool(t, s, 1)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/schedule",
		bytes.NewReader(scheduleBody(t, workflowJSON(t, 15, 2), "heft", 0)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")

	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the request reach the queue
	cancel()                          // client walks away
	if err := <-errc; err == nil {
		t.Fatal("expected the cancelled client to see an error")
	}
	release()

	// The abandoned job must drain without surfacing a 500 or 504.
	deadline := time.Now().Add(2 * time.Second)
	for s.pool.queueDepth() > 0 || s.pool.inFlightCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("pool did not drain after client disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := s.metrics.reg.Value("budgetwfd_responses_total", "500"); got != 0 {
		t.Errorf("500 count = %v, want 0", got)
	}
	if got := s.metrics.reg.Value("budgetwfd_responses_total", "504"); got != 0 {
		t.Errorf("504 count = %v, want 0", got)
	}
}

func TestOverloadShedsCleanly(t *testing.T) {
	before := runtime.NumGoroutine()

	s := newTestServer(t, Config{Workers: 2, QueueDepth: 2})
	ts := httptest.NewServer(s.Handler())

	// Saturate the pool: both workers busy, both queue slots taken.
	release := blockPool(t, s, 4)

	const clients = 16
	statuses := make([]int, clients)
	retryAfter := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := scheduleBody(t, workflowJSON(t, 15, uint64(100+i)), "heftbudg", 50)
			resp, err := ts.Client().Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
			if err != nil {
				statuses[i] = -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			statuses[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	got429, got500 := 0, 0
	for i, code := range statuses {
		switch code {
		case http.StatusTooManyRequests:
			got429++
			if retryAfter[i] == "" {
				t.Errorf("client %d: 429 without Retry-After", i)
			}
		case http.StatusInternalServerError:
			got500++
		case -1:
			t.Errorf("client %d: transport error", i)
		}
	}
	if got429 == 0 {
		t.Error("saturated pool produced no 429s")
	}
	if got500 != 0 {
		t.Errorf("overload produced %d 500s, want 0", got500)
	}

	// Graceful shutdown: release the blockers, drain, and verify no
	// goroutines leaked.
	release()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts.Close()

	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before+3 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after shutdown", before, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestPanicIsolation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	h := s.wrap("boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/")
	if err != nil {
		t.Fatalf("request after panic: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "internal error") {
		t.Errorf("panic response body = %s", body)
	}
	if s.metrics.reg.Value("budgetwfd_panics_total", "") != 1 {
		t.Errorf("panic counter = %v, want 1", s.metrics.reg.Value("budgetwfd_panics_total", ""))
	}
}

func TestRequestIDsAreUnique(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	seen := map[string]bool{}
	for i := 0; i < 20; i++ {
		resp, err := ts.Client().Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		id := resp.Header.Get("X-Request-Id")
		if id == "" || seen[id] {
			t.Fatalf("request %d: duplicate or empty id %q", i, id)
		}
		seen[id] = true
	}
}

func TestMethodNotAllowed(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/schedule")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/schedule = %d, want 405", resp.StatusCode)
	}
}

// TestBodyTooLargeRejected: a body over MaxBodyBytes is a 413 that
// says so on every endpoint that decodes one — not a 400 blaming the
// client's JSON — whether the endpoint buffers the body (/v1/schedule)
// or streams it into the decoder (the rest).
func TestBodyTooLargeRejected(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 256,
		EnablePool: true, PoolBillingQuantum: 3600, PoolTimeToShutdown: 360})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Well-formed JSON that is merely long, and a body the decoder has
	// to read to the limit before it could object to anything else.
	long := fmt.Sprintf(`{"workflow": {"name": %q}, "algorithm": "heft"}`, strings.Repeat("x", 1024))
	padded := strings.Repeat(" ", 1024) + "{}"
	for _, tc := range []struct{ path, body string }{
		{"/v1/schedule", long},
		{"/v1/schedule", padded},
		{"/v1/simulate", long},
		{"/v1/sweep", padded},
		{"/v1/jobs", padded},
		{"/v1/shards", padded},
		{"/v1/workers", padded},
		{"/v1/submit", long},
	} {
		code, data, _ := post(t, ts, tc.path, []byte(tc.body))
		if code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized body = %d, want 413 (%s)", tc.path, code, data)
			continue
		}
		var e apiError
		if err := json.Unmarshal(data, &e); err != nil {
			t.Errorf("%s: 413 body is not the error JSON: %s", tc.path, data)
			continue
		}
		if !strings.Contains(e.Error, "exceeds the limit of 256 bytes") || strings.Contains(e.Error, "malformed") || e.RequestID == "" {
			t.Errorf("%s: 413 says %q (request id %q)", tc.path, e.Error, e.RequestID)
		}
	}
	if got := s.metrics.reg.Value("budgetwfd_responses_total", "413"); got != 8 {
		t.Errorf("413 count = %v, want 8", got)
	}
	if s.cache.stats().Aliases != 0 {
		t.Error("an oversized body was aliased")
	}

	// A body at the limit is still judged on its JSON.
	atLimit := `{"workflow": ` + strings.Repeat(" ", 256-len(`{"workflow": `))
	if code, data, _ := post(t, ts, "/v1/schedule", []byte(atLimit)); code != http.StatusBadRequest ||
		!strings.Contains(string(data), "malformed request body") {
		t.Errorf("truncated body at the limit = %d (%s), want the 400 for malformed JSON", code, data)
	}
}
