package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"budgetwf/internal/platform"
)

// simBodyWith builds a /v1/simulate body from the planned schedule plus
// extra fields.
func simBodyWith(t *testing.T, wfJSON, schedule json.RawMessage, extra map[string]any) []byte {
	t.Helper()
	m := map[string]any{
		"workflow": wfJSON,
		"schedule": schedule,
	}
	for k, v := range extra {
		m[k] = v
	}
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSimulateAnalyticEstimator: estimator=analytic serves the same
// response shape as Monte Carlo, deterministically, with aggregates
// tracking the MC ones — and the per-estimator counter moves.
func TestSimulateAnalyticEstimator(t *testing.T) {
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

	analyticBody := simBodyWith(t, wfJSON, planned.Schedule, map[string]any{
		"replications": 50, "budget": 50, "estimator": "analytic",
	})
	code, data, _ = post(t, ts, "/v1/simulate", analyticBody)
	if code != http.StatusOK {
		t.Fatalf("analytic simulate = %d: %s", code, data)
	}
	var analytic simulateResponse
	if err := json.Unmarshal(data, &analytic); err != nil {
		t.Fatal(err)
	}
	if analytic.Replications != 50 || analytic.Makespan.N != 50 {
		t.Errorf("replications = %d / makespan.n = %d, want 50", analytic.Replications, analytic.Makespan.N)
	}
	if analytic.Makespan.Mean <= 0 || analytic.Cost.Mean <= 0 {
		t.Errorf("implausible aggregates: %+v", analytic)
	}

	// Deterministic: a repeated request reproduces the aggregates
	// exactly (no Monte Carlo noise on the analytic path).
	code, data2, _ := post(t, ts, "/v1/simulate", analyticBody)
	if code != http.StatusOK {
		t.Fatalf("repeat analytic simulate = %d: %s", code, data2)
	}
	var repeat simulateResponse
	if err := json.Unmarshal(data2, &repeat); err != nil {
		t.Fatal(err)
	}
	if repeat.Makespan != analytic.Makespan || repeat.Cost != analytic.Cost {
		t.Errorf("analytic estimator not deterministic:\n%+v\n%+v", analytic, repeat)
	}

	// The analytic aggregates track a Monte Carlo run of the same plan.
	mcBody := simBodyWith(t, wfJSON, planned.Schedule, map[string]any{
		"replications": 400, "budget": 50, "seed": 42,
	})
	code, data, _ = post(t, ts, "/v1/simulate", mcBody)
	if code != http.StatusOK {
		t.Fatalf("mc simulate = %d: %s", code, data)
	}
	var mc simulateResponse
	if err := json.Unmarshal(data, &mc); err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(analytic.Makespan.Mean-mc.Makespan.Mean) / mc.Makespan.Mean; rel > 0.10 {
		t.Errorf("analytic makespan mean %.1f vs MC %.1f (rel %.3f)", analytic.Makespan.Mean, mc.Makespan.Mean, rel)
	}
	if rel := math.Abs(analytic.Cost.Mean-mc.Cost.Mean) / mc.Cost.Mean; rel > 0.10 {
		t.Errorf("analytic cost mean %.2f vs MC %.2f (rel %.3f)", analytic.Cost.Mean, mc.Cost.Mean, rel)
	}

	if got := s.metrics.reg.Value("budgetwfd_estimator_requests_total", "analytic"); got != 2 {
		t.Errorf("EstimatorCount(analytic) = %v, want 2", got)
	}
	if got := s.metrics.reg.Value("budgetwfd_estimator_requests_total", "mc"); got != 1 {
		t.Errorf("EstimatorCount(mc) = %v, want 1", got)
	}

	// The Prometheus exposition carries the per-estimator family.
	code, metrics := get(t, ts, "/metrics?format=prometheus")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	for _, want := range []string{
		`budgetwfd_estimator_requests_total{estimator="analytic"} 2`,
		`budgetwfd_estimator_requests_total{estimator="mc"} 1`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

// TestSimulateEstimatorValidation: unknown names are per-field 400s;
// semantically impossible combinations (faults, contention) are 422s.
func TestSimulateEstimatorValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
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

	contended := platform.Default()
	contended.DCBandwidth = 1e9
	contendedJSON, err := json.Marshal(contended)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]struct {
		extra map[string]any
		want  int
	}{
		"unknown estimator": {map[string]any{"estimator": "montecarlo"}, http.StatusBadRequest},
		"analytic with faults": {map[string]any{
			"estimator": "analytic",
			"faults":    map[string]any{"crashRatePerHour": []float64{0.1, 0.1, 0.1}},
		}, http.StatusUnprocessableEntity},
		"analytic with contention": {map[string]any{
			"estimator": "analytic",
			"platform":  json.RawMessage(contendedJSON),
		}, http.StatusUnprocessableEntity},
	}
	for name, tc := range cases {
		body := simBodyWith(t, wfJSON, planned.Schedule, tc.extra)
		code, data, _ := post(t, ts, "/v1/simulate", body)
		if code != tc.want {
			t.Errorf("%s: status = %d, want %d (body %s)", name, code, tc.want, data)
		}
		if !bytes.Contains(data, []byte("estimator")) {
			t.Errorf("%s: error body does not name the estimator field: %s", name, data)
		}
	}
}

// TestSweepAnalyticEstimator: the sweep endpoint accepts the estimator
// field, serves a deterministic response for estimator=analytic, and
// rejects unknown names with a per-field 400.
func TestSweepAnalyticEstimator(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{
		"workflowType": "montage",
		"n":            15,
		"gridK":        2,
		"instances":    1,
		"replications": 4,
		"algorithms":   []string{"heft", "heftbudg"},
		"estimator":    "analytic",
	})
	code, data, _ := post(t, ts, "/v1/sweep", body)
	if code != http.StatusOK {
		t.Fatalf("analytic sweep = %d: %s", code, data)
	}
	var out sweepResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Series) != 2 {
		t.Fatalf("got %d series, want 2", len(out.Series))
	}
	for _, series := range out.Series {
		for _, p := range series.Points {
			if p.Makespan.N != 4 || p.Makespan.Mean <= 0 {
				t.Errorf("%s: implausible point %+v", series.Algorithm, p)
			}
		}
	}

	bad, _ := json.Marshal(map[string]any{
		"workflowType": "montage", "n": 15, "estimator": "montecarlo",
	})
	code, data, _ = post(t, ts, "/v1/sweep", bad)
	if code != http.StatusBadRequest {
		t.Errorf("unknown estimator: status = %d, want 400 (body %s)", code, data)
	}
	if !bytes.Contains(data, []byte("estimator")) {
		t.Errorf("error body does not name the estimator field: %s", data)
	}
}
