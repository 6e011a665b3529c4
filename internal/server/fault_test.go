package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"budgetwf/internal/exp"
	"budgetwf/internal/fault"
	"budgetwf/internal/rng"
	"budgetwf/internal/stats"
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

// TestSimulateRendersReplayBatch: in every mode the response is a
// rendering of the exp.Batch the same Replay returns — its summaries
// are stats.Summarize of the batch's observations, its per-run means the
// batch's counters over its executions — and the spot section appears
// exactly where something can take a spot VM away.
func TestSimulateRendersReplayBatch(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	wfJSON := workflowJSON(t, 20, 3)
	wfl, err := parseWorkflow(wfJSON)
	if err != nil {
		t.Fatal(err)
	}
	crashes := &fault.Spec{CrashRatePerHour: []float64{5}, BootFailProb: 0.05, Seed: 9}
	for name, tc := range map[string]struct {
		market    json.RawMessage
		estimator string
		faults    *fault.Spec
		spot      bool
	}{
		"mc":                 {},
		"analytic":           {estimator: exp.EstimatorAnalytic},
		"faults":             {faults: crashes},
		"revocable market":   {market: spotMarketJSON(6), spot: true},
		"zero-hazard market": {market: spotMarketJSON(0)},
		"market and faults":  {market: spotMarketJSON(0), faults: crashes, spot: true},
	} {
		plat, err := resolvePlatform(nil, tc.market)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		req := map[string]any{"workflow": wfJSON, "algorithm": "heftbudg", "budget": 0.01}
		if tc.market != nil {
			req["market"] = tc.market
		}
		body, _ := json.Marshal(req)
		code, data, _ := post(t, ts, "/v1/schedule", body)
		var planned scheduleResponse
		if err := json.Unmarshal(data, &planned); code != http.StatusOK || err != nil {
			t.Fatalf("%s: schedule = %d, %v: %s", name, code, err, data)
		}
		schedule, err := parseSchedule(planned.Schedule, wfl, plat)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		delete(req, "algorithm")
		req["schedule"], req["replications"], req["seed"], req["budget"] = planned.Schedule, 8, 42, 0.012
		replay := exp.Replay{Workflow: wfl, Platform: plat, Schedule: schedule, Budget: 0.012, Reps: 8,
			Estimator: tc.estimator, Faults: tc.faults, Weights: rng.New(42), FaultSeed: 42}
		if tc.estimator != "" {
			req["estimator"] = tc.estimator
		}
		if tc.faults != nil {
			req["faults"] = tc.faults
		}
		body, _ = json.Marshal(req)
		code, data, _ = post(t, ts, "/v1/simulate", body)
		var resp simulateResponse
		if err := json.Unmarshal(data, &resp); code != http.StatusOK || err != nil {
			t.Fatalf("%s: simulate = %d, %v: %s", name, code, err, data)
		}
		b, err := replay.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp.Replications != b.Reps || resp.Makespan != toSummaryJSON(stats.Summarize(b.Makespans)) ||
			resp.Cost != toSummaryJSON(stats.Summarize(b.Costs)) || resp.ValidFrac != b.Frac(b.InBudget) {
			t.Errorf("%s: response %s\ndoes not summarize batch %+v", name, data, b)
		}
		if (resp.Faults != nil) != (tc.faults != nil) || (resp.Spot != nil) != tc.spot {
			t.Errorf("%s: faults section %v, spot section %v: %s", name, resp.Faults != nil, resp.Spot != nil, data)
		}
		if f := resp.Faults; f != nil && (f.Completed != b.Completed || f.CrashesPerRun != b.Frac(b.Crashes) ||
			f.RecoveriesVetoedPerRun != b.Frac(b.Vetoed) || f.WastedSecondsPerRun != b.WastedSeconds/8) {
			t.Errorf("%s: faults section %+v does not render batch %+v", name, *f, b)
		}
		if sp := resp.Spot; sp != nil && (sp.Completed != b.Completed || sp.SpotVMsPerRun != b.Frac(b.SpotVMs) ||
			sp.RevocationsPerRun != b.Frac(b.Revocations) || sp.SpotCostPerRun != b.SpotCost/8 || sp.ReworkCostPerRun != b.ReworkCost/8) {
			t.Errorf("%s: spot section %+v does not render batch %+v", name, *sp, b)
		}
	}
}
