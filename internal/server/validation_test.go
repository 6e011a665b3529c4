package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"budgetwf/internal/platform"
	"budgetwf/internal/reqerr"
)

// cancelJob withdraws an accepted job, so the test's shutdown does not
// wait for a campaign nobody reads.
func cancelJob(t *testing.T, ts *httptest.Server, submitted []byte) {
	t.Helper()
	var sub jobSubmitResponse
	if err := json.Unmarshal(submitted, &sub); err != nil || sub.JobID == "" {
		t.Fatalf("submit response %s: %v", submitted, err)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.JobID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// errorOf extracts the error field of a non-2xx body.
func errorOf(t *testing.T, data []byte) string {
	t.Helper()
	var e apiError
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("error body %s: %v", data, err)
	}
	return e.Error
}

// TestSweepEndpointParity: POST /v1/sweep's body is the sweep object of
// a job, validated by the same code. The same object posted to
// /v1/sweep and wrapped as {"kind":"sweep","sweep":…} to /v1/jobs is
// accepted or rejected alike, with the same status and the same message
// but for the envelope's "sweep." prefix. The one documented difference
// — the synchronous endpoint's tighter instances ceiling — is asserted
// at the end.
func TestSweepEndpointParity(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	contended := platform.Default()
	contended.DCBandwidth = 1e9
	contendedJSON, err := json.Marshal(contended)
	if err != nil {
		t.Fatal(err)
	}
	defaultJSON, err := json.Marshal(platform.Default())
	if err != nil {
		t.Fatal(err)
	}
	// small is a valid sweep of four cells; each row overrides fields.
	small := func(over map[string]any) map[string]any {
		m := map[string]any{
			"workflowType": "chain", "n": 6, "algorithms": []string{"heft", "heftbudg"},
			"gridK": 2, "instances": 1, "replications": 2,
		}
		for k, v := range over {
			m[k] = v
		}
		return m
	}
	cases := []struct {
		name   string
		body   map[string]any
		status int    // 0: accepted (200 from /v1/sweep, 202 from /v1/jobs)
		names  string // substring of the rejection message
		decode bool   // rejected by the strict decoder: no field path to prefix
	}{
		{name: "valid", body: small(nil)},
		{name: "lower boundaries", body: small(map[string]any{"n": 4, "gridK": 1, "replications": 1, "sigmaRatio": 10})},
		{name: "n below range", body: small(map[string]any{"n": 2}), status: 400, names: "n: must be in [4, 500]"},
		{name: "n above range", body: small(map[string]any{"n": 501}), status: 400, names: "n: "},
		{name: "gridK above range", body: small(map[string]any{"gridK": 401}), status: 400, names: "gridK: "},
		{name: "gridK negative", body: small(map[string]any{"gridK": -1}), status: 400, names: "gridK: "},
		{name: "instances above range", body: small(map[string]any{"instances": 401}), status: 400, names: "instances: must be in [1, 400]"},
		{name: "replications above range", body: small(map[string]any{"replications": 401}), status: 400, names: "replications: "},
		{name: "sigmaRatio above range", body: small(map[string]any{"sigmaRatio": 10.5}), status: 400, names: "sigmaRatio: "},
		{name: "sigmaRatio negative", body: small(map[string]any{"sigmaRatio": -0.5}), status: 400, names: "sigmaRatio: "},
		{name: "unknown estimator", body: small(map[string]any{"estimator": "montecarlo"}), status: 400, names: "estimator: "},
		{name: "unknown field", body: small(map[string]any{"repBlock": 2}), status: 400, names: `unknown field`, decode: true},
		{name: "unknown type", body: small(map[string]any{"workflowType": "escher"}), status: 422, names: "workflowType: "},
		{name: "unknown algorithm", body: small(map[string]any{"algorithms": []string{"nope"}}), status: 422, names: "algorithms: "},
		{name: "montage below its minimum", body: small(map[string]any{"workflowType": "montage", "n": 10}), status: 422, names: "n: "},
		{name: "market and platform", body: small(map[string]any{"market": spotMarketJSON(4), "platform": json.RawMessage(defaultJSON)}),
			status: 400, names: "market: mutually exclusive"},
		{name: "market field out of range", body: small(map[string]any{"market": json.RawMessage(
			`{"providers":[{"name":"p","categories":[{"name":"c","speed":1e9,"costPerSec":1e-6,"spot":{"discount":1.5}}]}]}`)}),
			status: 400, names: "market.providers[0].categories[0].spot.discount: "},
		{name: "analytic on a market", body: small(map[string]any{"estimator": "analytic", "market": spotMarketJSON(4)}),
			status: 422, names: "estimator: "},
		{name: "analytic under contention", body: small(map[string]any{"estimator": "analytic", "platform": json.RawMessage(contendedJSON)}),
			status: 422, names: "estimator: "},
		{name: "explicit platform", body: small(map[string]any{"platform": json.RawMessage(defaultJSON)})},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, err := json.Marshal(tc.body)
			if err != nil {
				t.Fatal(err)
			}
			wrapped, err := json.Marshal(map[string]any{"kind": "sweep", "sweep": tc.body})
			if err != nil {
				t.Fatal(err)
			}
			sweepCode, sweepData, _ := post(t, ts, "/v1/sweep", body)
			jobCode, jobData, _ := post(t, ts, "/v1/jobs", wrapped)
			if tc.status == 0 {
				if sweepCode != http.StatusOK || jobCode != http.StatusAccepted {
					t.Fatalf("/v1/sweep = %d (%s), /v1/jobs = %d (%s); want 200 and 202", sweepCode, sweepData, jobCode, jobData)
				}
				cancelJob(t, ts, jobData)
				return
			}
			if sweepCode != tc.status || jobCode != tc.status {
				t.Fatalf("/v1/sweep = %d (%s), /v1/jobs = %d (%s); want %d from both", sweepCode, sweepData, jobCode, jobData, tc.status)
			}
			sweepMsg, jobMsg := errorOf(t, sweepData), errorOf(t, jobData)
			if !strings.Contains(sweepMsg, tc.names) {
				t.Errorf("/v1/sweep says %q, want it to contain %q", sweepMsg, tc.names)
			}
			want := "sweep." + sweepMsg
			if tc.decode {
				want = sweepMsg
			}
			if jobMsg != want {
				t.Errorf("/v1/jobs says %q, want %q", jobMsg, want)
			}
		})
	}

	// The difference: what fits a job does not have to fit a request.
	eleven := small(map[string]any{"instances": maxSweepRuns + 1})
	body, _ := json.Marshal(eleven)
	wrapped, _ := json.Marshal(map[string]any{"kind": "sweep", "sweep": eleven})
	if code, data, _ := post(t, ts, "/v1/sweep", body); code != http.StatusBadRequest || !strings.Contains(errorOf(t, data), "instances: must be in [1, 10]") {
		t.Errorf("/v1/sweep with %d instances = %d (%s), want 400 naming its ceiling", maxSweepRuns+1, code, data)
	}
	code, data, _ := post(t, ts, "/v1/jobs", wrapped)
	if code != http.StatusAccepted {
		t.Fatalf("/v1/jobs with %d instances = %d (%s), want 202", maxSweepRuns+1, code, data)
	}
	cancelJob(t, ts, data)
}

// TestValidationStatuses: whichever package finds the defect — fault,
// pool, market, dist or the server's own helpers — the response gets its
// status from Server.fail: scalar-domain errors are 400s naming the
// field's path, unusable input is a 422.
func TestValidationStatuses(t *testing.T) {
	s := poolTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	wfJSON, schedJSON := plannedPair(t, ts, 15, 7)

	jobBody := func(kind string, payload map[string]any) []byte {
		b, _ := json.Marshal(map[string]any{"kind": kind, kind: payload})
		return b
	}
	cases := []struct {
		name, path string
		body       []byte
		status     int
		names      string
	}{
		{"simulate: fault field", "/v1/simulate",
			simBodyWith(t, wfJSON, schedJSON, map[string]any{"faults": map[string]any{"bootFailProb": 1}}),
			400, "faults.bootFailProb: "},
		{"simulate: replications", "/v1/simulate",
			simBodyWith(t, wfJSON, schedJSON, map[string]any{"replications": maxReplications + 1}),
			400, "replications: "},
		{"simulate: analytic with faults", "/v1/simulate",
			simBodyWith(t, wfJSON, schedJSON, map[string]any{"estimator": "analytic", "faults": map[string]any{"taskFailProb": 0.1}}),
			422, "estimator: "},
		{"simulate: schedule of another workflow", "/v1/simulate",
			simBodyWith(t, workflowJSON(t, 20, 1), schedJSON, nil),
			422, "schedule: "},
		{"schedule: unknown algorithm", "/v1/schedule", scheduleBody(t, wfJSON, "zigzag", 1), 422, "algorithm: "},
		{"schedule: negative budget", "/v1/schedule", scheduleBody(t, wfJSON, "heft", -1), 400, "budget: "},
		{"schedule: cyclic workflow", "/v1/schedule",
			[]byte(`{"workflow":{"name":"c","tasks":[{"name":"a","mean":1},{"name":"b","mean":1}],"edges":[{"from":0,"to":1},{"from":1,"to":0}]},"algorithm":"heft"}`),
			422, "workflow: "},
		{"submit: tenant cap", "/v1/submit", submitBody(t, map[string]any{"id": "a", "maxVMs": -2}, wfJSON, "heft", 0), 400, "tenant.maxVMs: "},
		{"submit: unknown algorithm", "/v1/submit", submitBody(t, map[string]any{"id": "a"}, wfJSON, "zigzag", 0), 422, "zigzag"},
		{"jobs: fault template field", "/v1/jobs",
			jobBody("faultSweep", map[string]any{"workflowType": "chain", "n": 6, "faults": map[string]any{"maxRetries": -1}}),
			400, "faultSweep.faults.maxRetries: "},
		{"jobs: negative rate", "/v1/jobs",
			jobBody("faultSweep", map[string]any{"workflowType": "chain", "n": 6, "rates": []float64{-1}}),
			400, "faultSweep.rates: "},
		{"jobs: figure below the Montage minimum", "/v1/jobs", jobBody("figure", map[string]any{"figure": 1, "n": 8}), 400, "figure.n: "},
		{"jobs: figure size a family cannot generate", "/v1/jobs", jobBody("figure", map[string]any{"figure": 1, "n": 12}), 422, "figure.n: "},
		{"shards: figure range past the grid", "/v1/shards", []byte(`{"kind":"figure","figure":{"figure":1},"start":0,"end":100000}`), 422, "end: "},
		{"workers: relative url", "/v1/workers", []byte(`{"url":"worker-1","nonce":"x"}`), 400, "url: "},
	}
	for _, tc := range cases {
		code, data, _ := post(t, ts, tc.path, tc.body)
		if code != tc.status || !strings.Contains(errorOf(t, data), tc.names) {
			t.Errorf("%s: %d (%s), want %d naming %q", tc.name, code, data, tc.status, tc.names)
		}
	}
}

// TestTrailingBracketsAre400: every endpoint that decodes a JSON body
// refuses a stray closing bracket after it, as it refuses any other
// trailing data.
func TestTrailingBracketsAre400(t *testing.T) {
	s := poolTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{"/v1/schedule", "/v1/simulate", "/v1/sweep", "/v1/jobs", "/v1/shards", "/v1/workers", "/v1/submit"} {
		for _, tail := range []string{"}", "]", " \n}"} {
			code, data, _ := post(t, ts, path, []byte("{}"+tail))
			if code != http.StatusBadRequest || errorOf(t, data) != "malformed request body: trailing data after JSON body" {
				t.Errorf("%s with %q after the body: %d (%s), want the 400 for trailing data", path, tail, code, data)
			}
		}
	}
}

// TestFailClassifies drives the one error → status mapping directly.
func TestFailClassifies(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	for name, tc := range map[string]struct {
		err    error
		status int // 0: nothing is written
		body   string
	}{
		"scalar domain": {reqerr.Invalid("budget", "negative"), 400, "budget: negative"},
		"semantic":      {reqerr.Unusable("algorithm", "unknown"), 422, "algorithm: unknown"},
		"re-rooted":     {reqerr.Under("sweep", reqerr.Unusable("n", "too few")), 422, "sweep.n: too few"},
		"unclassified":  {reqerr.Under("platform", errors.New("no categories")), 422, "platform: no categories"},
		"wrapped":       {fmt.Errorf("pool: %w", reqerr.Invalid("at", "negative")), 400, "pool: at: negative"},
		"no field":      {reqerr.Unusable("", "missing workflow"), 422, "missing workflow"},
		"deadline":      {fmt.Errorf("plan: %w", context.DeadlineExceeded), 504, "request timed out"},
		"client gone":   {context.Canceled, 0, ""},
		"anything else": {errors.New("disk on fire"), 500, "internal error"},
	} {
		rec := httptest.NewRecorder()
		rec.Code = 0
		s.fail(rec, "req-1", tc.err)
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d", name, rec.Code, tc.status)
		}
		if tc.status != 0 && errorOf(t, rec.Body.Bytes()) != tc.body {
			t.Errorf("%s: body %s, want error %q", name, rec.Body.Bytes(), tc.body)
		}
	}
}
