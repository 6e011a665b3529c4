package server

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// plannedPair schedules a workflow and returns (workflow JSON,
// schedule JSON) ready to embed in simulate bodies.
func plannedPair(t *testing.T, ts *httptest.Server, n int, seed uint64) (json.RawMessage, json.RawMessage) {
	t.Helper()
	wfJSON := workflowJSON(t, n, seed)
	code, data, _ := post(t, ts, "/v1/schedule", scheduleBody(t, wfJSON, "heftbudg", 50))
	if code != http.StatusOK {
		t.Fatalf("schedule = %d: %s", code, data)
	}
	var planned scheduleResponse
	if err := json.Unmarshal(data, &planned); err != nil {
		t.Fatal(err)
	}
	return wfJSON, planned.Schedule
}

// TestSimulateMalformedValuesAre400 drives the scalar-domain checks:
// out-of-range budgets, timeouts and fault-spec fields are 400s with
// field-naming messages, not 422s and not pool work.
func TestSimulateMalformedValuesAre400(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wfJSON, schedJSON := plannedPair(t, ts, 15, 7)
	body := func(extra string) []byte {
		return []byte(`{"workflow":` + string(wfJSON) + `,"schedule":` + string(schedJSON) + `,"replications":2` + extra + `}`)
	}

	cases := []struct {
		name    string
		extra   string
		wantMsg string
	}{
		{"negative budget", `,"budget":-4`, "budget"},
		{"negative timeout", `,"timeoutMillis":-5`, "timeoutMillis"},
		{"replications over the ceiling", `,"replications":10001`, "replications"},
		{"negative crash rate", `,"faults":{"crashRatePerHour":[-1]}`, "faults.crashRatePerHour"},
		{"too many crash rates", `,"faults":{"crashRatePerHour":[1,1,1,1,1,1,1]}`, "faults.crashRatePerHour"},
		{"certain boot failure", `,"faults":{"bootFailProb":1}`, "faults.bootFailProb"},
		{"negative task-fail prob", `,"faults":{"taskFailProb":-0.1}`, "faults.taskFailProb"},
		{"unknown recovery", `,"faults":{"recovery":"pray"}`, "faults.recovery"},
		{"negative retries", `,"faults":{"maxRetries":-2}`, "faults.maxRetries"},
		{"negative backoff", `,"faults":{"rebootBackoffSec":-1}`, "faults.rebootBackoffSec"},
		{"unknown fault field", `,"faults":{"crashiness":11}`, "crashiness"},
	}
	for _, tc := range cases {
		code, data, _ := post(t, ts, "/v1/simulate", body(tc.extra))
		if code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (body %s)", tc.name, code, data)
			continue
		}
		var e apiError
		if err := json.Unmarshal(data, &e); err != nil || !strings.Contains(e.Error, tc.wantMsg) {
			t.Errorf("%s: error %q does not name %q", tc.name, e.Error, tc.wantMsg)
		}
	}
}

// TestScalarDomainChecks covers the values JSON itself cannot carry
// (NaN, ±Inf arrive only through in-process misuse).
func TestScalarDomainChecks(t *testing.T) {
	for _, b := range []float64{-1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if checkNonNegative("budget", b) == nil {
			t.Errorf("checkNonNegative(%v) accepted", b)
		}
	}
	for _, b := range []float64{0, 1, 1e12} {
		if err := checkNonNegative("budget", b); err != nil {
			t.Errorf("checkNonNegative(%v) = %v", b, err)
		}
	}
}

// TestSimulateWithFaults exercises the fault path end to end: a spec
// that dooms every boot degrades every replication to a partial
// result — HTTP 200 with successRate 0 and budget-guard vetoes, never
// an error.
func TestSimulateWithFaults(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wfJSON, schedJSON := plannedPair(t, ts, 15, 11)
	body, _ := json.Marshal(map[string]any{
		"workflow":     wfJSON,
		"schedule":     schedJSON,
		"replications": 5,
		"seed":         42,
		"budget":       0.0001, // far too tight for any recovery
		"faults": map[string]any{
			"bootFailProb": 0.999,
			"maxRetries":   1,
			"seed":         7,
		},
	})
	code, data, _ := post(t, ts, "/v1/simulate", body)
	if code != http.StatusOK {
		t.Fatalf("simulate = %d, want 200 (body %s)", code, data)
	}
	var resp simulateResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Faults == nil {
		t.Fatalf("faults summary missing: %s", data)
	}
	if resp.Faults.SuccessRate != 0 || resp.Faults.Completed != 0 {
		t.Errorf("all boots fail, yet successRate = %v", resp.Faults.SuccessRate)
	}
	if resp.Faults.BootFailuresPerRun == 0 {
		t.Errorf("no boot failures recorded: %+v", resp.Faults)
	}
	if resp.Faults.RecoveriesVetoedPerRun == 0 {
		t.Errorf("tight budget vetoed nothing: %+v", resp.Faults)
	}
	if resp.Makespan.N != 0 {
		t.Errorf("makespan summarized %d incomplete runs", resp.Makespan.N)
	}
	if resp.Cost.N != 5 {
		t.Errorf("cost summarized %d of 5 runs", resp.Cost.N)
	}
}

// TestSimulateZeroFaultSpecMatchesPlain: an empty faults object takes
// the fault-aware executor, whose no-fault behavior is identical to
// the plain simulator — same makespan statistics, successRate 1.
func TestSimulateZeroFaultSpecMatchesPlain(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wfJSON, schedJSON := plannedPair(t, ts, 15, 3)
	base := map[string]any{
		"workflow":     wfJSON,
		"schedule":     schedJSON,
		"replications": 5,
		"seed":         9,
	}
	run := func(withFaults bool) simulateResponse {
		t.Helper()
		if withFaults {
			base["faults"] = map[string]any{}
		} else {
			delete(base, "faults")
		}
		body, _ := json.Marshal(base)
		code, data, _ := post(t, ts, "/v1/simulate", body)
		if code != http.StatusOK {
			t.Fatalf("simulate = %d: %s", code, data)
		}
		var resp simulateResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	plain := run(false)
	faulty := run(true)
	if faulty.Faults == nil || faulty.Faults.SuccessRate != 1 {
		t.Fatalf("zero spec not all-success: %+v", faulty.Faults)
	}
	if plain.Makespan != faulty.Makespan || plain.Cost != faulty.Cost {
		t.Errorf("zero fault spec diverged from plain run:\n%+v\nvs\n%+v", plain, faulty)
	}
}

// TestSimulateTimeoutMillis: an absurdly small per-request timeout
// turns a heavy simulate into a 504 without touching the server-wide
// limit.
func TestSimulateTimeoutMillis(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wfJSON, schedJSON := plannedPair(t, ts, 40, 5)
	body, _ := json.Marshal(map[string]any{
		"workflow":      wfJSON,
		"schedule":      schedJSON,
		"replications":  10000,
		"timeoutMillis": 0.001,
	})
	code, data, _ := post(t, ts, "/v1/simulate", body)
	if code != http.StatusGatewayTimeout {
		t.Errorf("timeoutMillis=0.001 with 10000 reps = %d, want 504 (body %s)", code, data)
	}
}
