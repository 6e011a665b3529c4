package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// spotMarketJSON is a two-provider market: the home provider sells a
// revocable spot twin of its small category, and cross-provider
// transfers are priced and delayed.
func spotMarketJSON(rate float64) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{
	  "providers": [
	    {"name": "alpha", "categories": [
	      {"name": "small", "speed": 1e9, "costPerSec": 6.444e-6, "initCost": 0.0001,
	       "spot": {"discount": 0.6, "revocationsPerHour": %g}},
	      {"name": "large", "speed": 4e9, "costPerSec": 5.155e-5, "initCost": 0.0001}
	    ]},
	    {"name": "beta", "categories": [
	      {"name": "std", "speed": 2e9, "costPerSec": 1.823e-5, "initCost": 0.0001}
	    ]}
	  ],
	  "transfer": [[{}, {"costPerGB": 0.02, "latencySec": 0.5}],
	               [{"costPerGB": 0.02, "latencySec": 0.5}, {}]]
	}`, rate))
}

// TestScheduleMarket: a market spec compiles into the planning
// platform, and the platform/market pair is mutually exclusive.
func TestScheduleMarket(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	wfJSON := workflowJSON(t, 20, 3)

	body, _ := json.Marshal(map[string]any{
		"workflow":  wfJSON,
		"market":    spotMarketJSON(6),
		"algorithm": "heftbudg-spot",
		"budget":    0.01,
	})
	code, data, _ := post(t, ts, "/v1/schedule", body)
	if code != http.StatusOK {
		t.Fatalf("schedule on market = %d (%s)", code, data)
	}
	var resp struct {
		NumVMs   int             `json:"numVMs"`
		Schedule json.RawMessage `json:"schedule"`
	}
	if err := json.Unmarshal(data, &resp); err != nil || resp.NumVMs == 0 {
		t.Fatalf("schedule response: %v (%s)", err, data)
	}

	both, _ := json.Marshal(map[string]any{
		"workflow":  wfJSON,
		"market":    spotMarketJSON(6),
		"platform":  json.RawMessage(`{"categories":[{"name":"c","speed":1e9,"costPerSec":1e-6}],"bandwidth":1e8,"bootTime":1}`),
		"algorithm": "heftbudg",
		"budget":    1,
	})
	code, data, _ = post(t, ts, "/v1/schedule", both)
	if code != http.StatusBadRequest || !strings.Contains(string(data), "mutually exclusive") {
		t.Fatalf("market+platform = %d (%s), want 400 mutually exclusive", code, data)
	}
}

// TestMarketSpecErrors pins the error discipline of the market
// sub-object: scalar-domain violations are per-field 400s, semantic
// ones 422s, and unknown fields inside the spec are loud 400s.
func TestMarketSpecErrors(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	wfJSON := workflowJSON(t, 20, 3)

	cases := []struct {
		name     string
		market   string
		wantCode int
		wantSub  string
	}{
		{"badDiscount",
			`{"providers":[{"name":"p","categories":[{"name":"c","speed":1e9,"costPerSec":1e-6,"spot":{"discount":1.5}}]}]}`,
			http.StatusBadRequest, "market.providers[0].categories[0].spot.discount"},
		{"unknownHome",
			`{"providers":[{"name":"p","categories":[{"name":"c","speed":1e9,"costPerSec":1e-6}]}],"home":"nowhere"}`,
			http.StatusUnprocessableEntity, `market.home: unknown provider \"nowhere\"`},
		{"unknownField",
			`{"providers":[{"name":"p","categories":[{"name":"c","speed":1e9,"costPerSec":1e-6}]}],"discounts":0.5}`,
			http.StatusBadRequest, `unknown field \"discounts\"`},
		{"raggedTransfer",
			`{"providers":[{"name":"p","categories":[{"name":"c","speed":1e9,"costPerSec":1e-6}]}],"transfer":[[{},{}]]}`,
			http.StatusBadRequest, "market.transfer[0]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, _ := json.Marshal(map[string]any{
				"workflow":  wfJSON,
				"market":    json.RawMessage(tc.market),
				"algorithm": "heftbudg",
				"budget":    1,
			})
			code, data, _ := post(t, ts, "/v1/schedule", body)
			if code != tc.wantCode || !strings.Contains(string(data), tc.wantSub) {
				t.Fatalf("= %d (%s), want %d containing %q", code, data, tc.wantCode, tc.wantSub)
			}
		})
	}
}

// TestSimulateMarketSpot: a spot market simulates through the
// revocation-injecting executor — the response carries the spot
// section, spot VMs are booked under the tight budget, and the high
// hazard actually revokes them.
func TestSimulateMarketSpot(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	wfJSON := workflowJSON(t, 20, 3)

	schedBody, _ := json.Marshal(map[string]any{
		"workflow":  wfJSON,
		"market":    spotMarketJSON(6),
		"algorithm": "heftbudg-spot",
		"budget":    0.01,
	})
	code, data, _ := post(t, ts, "/v1/schedule", schedBody)
	if code != http.StatusOK {
		t.Fatalf("schedule = %d (%s)", code, data)
	}
	var sched struct {
		Schedule json.RawMessage `json:"schedule"`
	}
	if err := json.Unmarshal(data, &sched); err != nil {
		t.Fatal(err)
	}

	simBody, _ := json.Marshal(map[string]any{
		"workflow":     wfJSON,
		"market":       spotMarketJSON(6),
		"schedule":     sched.Schedule,
		"replications": 10,
		"budget":       0.02,
	})
	code, data, _ = post(t, ts, "/v1/simulate", simBody)
	if code != http.StatusOK {
		t.Fatalf("simulate = %d (%s)", code, data)
	}
	var resp struct {
		Spot *struct {
			SuccessRate       float64 `json:"successRate"`
			SpotVMsPerRun     float64 `json:"spotVMsPerRun"`
			RevocationsPerRun float64 `json:"revocationsPerRun"`
			SpotCostPerRun    float64 `json:"spotCostPerRun"`
			ReworkCostPerRun  float64 `json:"reworkCostPerRun"`
		} `json:"spot"`
		Faults json.RawMessage `json:"faults"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Spot == nil {
		t.Fatalf("no spot section in simulate response: %s", data)
	}
	if resp.Spot.SpotVMsPerRun <= 0 {
		t.Errorf("SpotVMsPerRun = %v, want > 0 (tight budget books spot)", resp.Spot.SpotVMsPerRun)
	}
	if resp.Spot.RevocationsPerRun <= 0 {
		t.Errorf("RevocationsPerRun = %v, want > 0 at rate 6/h", resp.Spot.RevocationsPerRun)
	}
	if resp.Spot.ReworkCostPerRun < 0 || resp.Spot.SuccessRate < 0 || resp.Spot.SuccessRate > 1 {
		t.Errorf("inconsistent spot summary: %+v", resp.Spot)
	}
	// No faults were requested, so revocations alone must not fabricate
	// a fault section.
	if len(resp.Faults) > 0 && string(resp.Faults) != "null" {
		t.Errorf("faults section present without a faults spec: %s", resp.Faults)
	}

	// The analytic estimator cannot model market platforms.
	var anBody map[string]any
	_ = json.Unmarshal(simBody, &anBody)
	anBody["estimator"] = "analytic"
	b, _ := json.Marshal(anBody)
	code, data, _ = post(t, ts, "/v1/simulate", b)
	if code != http.StatusUnprocessableEntity || !strings.Contains(string(data), "market") {
		t.Fatalf("analytic+market = %d (%s), want 422 naming market", code, data)
	}
}

// TestSweepMarketSpot drives the full spot pipeline through POST
// /v1/sweep: the response points carry the spot aggregates and the
// Prometheus exposition reports the process-wide spot families.
func TestSweepMarketSpot(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{
		"workflowType": "montage",
		"n":            20,
		"algorithms":   []string{"heftbudg-spot"},
		"gridK":        3,
		"instances":    1,
		"replications": 4,
		"seed":         7,
		"market":       spotMarketJSON(6),
	})
	code, data, _ := post(t, ts, "/v1/sweep", body)
	if code != http.StatusOK {
		t.Fatalf("spot sweep = %d (%s)", code, data)
	}
	var resp struct {
		Series []struct {
			Points []struct {
				SuccessFrac float64 `json:"successFrac"`
				SpotVMs     float64 `json:"spotVMs"`
				Revocations float64 `json:"revocations"`
				ReworkCost  float64 `json:"reworkCost"`
			} `json:"points"`
		} `json:"series"`
	}
	if err := json.Unmarshal(data, &resp); err != nil || len(resp.Series) != 1 {
		t.Fatalf("sweep response: %v (%s)", err, data)
	}
	spotSeen, revSeen := false, false
	for _, pt := range resp.Series[0].Points {
		if pt.SuccessFrac < 0 || pt.SuccessFrac > 1 {
			t.Fatalf("successFrac %v out of range", pt.SuccessFrac)
		}
		if pt.SpotVMs > 0 {
			spotSeen = true
		}
		if pt.Revocations > 0 {
			revSeen = true
		}
	}
	if !spotSeen {
		t.Error("no sweep point booked a spot VM")
	}
	if !revSeen {
		t.Error("no sweep point recorded a revocation at rate 6/h")
	}

	if got := s.metrics.reg.Value("budgetwfd_spot_revocations_total", ""); got <= 0 {
		t.Errorf("spot revocation counter = %v, want > 0", got)
	}
	code, metrics := get(t, ts, "/metrics?format=prometheus")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	for _, family := range []string{
		"budgetwfd_spot_vms_total",
		"budgetwfd_spot_revocations_total",
		"budgetwfd_spot_rework_cost_total",
	} {
		if !strings.Contains(string(metrics), family) {
			t.Errorf("Prometheus exposition missing %s", family)
		}
	}
	if strings.Contains(string(metrics), "budgetwfd_spot_revocations_total 0\n") {
		t.Error("budgetwfd_spot_revocations_total still zero after a revoking sweep")
	}

	// The analytic estimator is refused on market platforms here too.
	var anBody map[string]any
	_ = json.Unmarshal(body, &anBody)
	anBody["estimator"] = "analytic"
	b, _ := json.Marshal(anBody)
	code, data, _ = post(t, ts, "/v1/sweep", b)
	if code != http.StatusUnprocessableEntity || !strings.Contains(string(data), "market") {
		t.Fatalf("analytic+market sweep = %d (%s), want 422 naming market", code, data)
	}
}

// TestSweepNonSpotResponseShape: on the default platform the new
// successFrac field is exactly 1 and the spot aggregates are omitted —
// the degenerate wire contract.
func TestSweepNonSpotResponseShape(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{
		"workflowType": "chain", "n": 6, "algorithms": []string{"heftbudg"},
		"gridK": 2, "instances": 1, "replications": 2, "seed": 1,
	})
	code, data, _ := post(t, ts, "/v1/sweep", body)
	if code != http.StatusOK {
		t.Fatalf("sweep = %d (%s)", code, data)
	}
	if !strings.Contains(string(data), `"successFrac":1`) {
		t.Errorf("sweep points missing successFrac=1: %s", data)
	}
	for _, field := range []string{`"spotVMs"`, `"revocations"`, `"reworkCost"`} {
		if strings.Contains(string(data), field) {
			t.Errorf("degenerate sweep response leaked %s: %s", field, data)
		}
	}
}

// TestSweepUnknownTopLevelField pins the strict-envelope contract on
// POST /v1/sweep: an unknown top-level spec field is a 400 naming the
// field, never a silent ignore.
func TestSweepUnknownTopLevelField(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := []byte(`{"workflowType":"chain","n":8,"spotDiscount":0.5}`)
	code, data, _ := post(t, ts, "/v1/sweep", body)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown field = %d (%s), want 400", code, data)
	}
	if !strings.Contains(string(data), `unknown field \"spotDiscount\"`) {
		t.Fatalf("error does not name the field: %s", data)
	}
}

// TestJobUnknownTopLevelField pins the same contract on POST /v1/jobs:
// unknown fields at the envelope and inside the nested sweep spec are
// both 400s naming the field.
func TestJobUnknownTopLevelField(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, data, _ := post(t, ts, "/v1/jobs", []byte(`{"kind":"sweep","spotMarket":{}}`))
	if code != http.StatusBadRequest || !strings.Contains(string(data), `unknown field \"spotMarket\"`) {
		t.Fatalf("envelope unknown field = %d (%s), want 400 naming it", code, data)
	}

	nested := []byte(`{"kind":"sweep","sweep":{"workflowType":"chain","n":8,"revocations":1}}`)
	code, data, _ = post(t, ts, "/v1/jobs", nested)
	if code != http.StatusBadRequest || !strings.Contains(string(data), `unknown field \"revocations\"`) {
		t.Fatalf("nested unknown field = %d (%s), want 400 naming it", code, data)
	}
}

// TestJobSweepMarketSpot submits a spot-market sweep through the async
// job path and checks the merged result carries the spot aggregates
// and moves the spot metric families.
func TestJobSweepMarketSpot(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var marketSpec map[string]any
	if err := json.Unmarshal(spotMarketJSON(6), &marketSpec); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]any{
		"kind": "sweep",
		"sweep": map[string]any{
			"workflowType": "montage",
			"n":            20,
			"algorithms":   []string{"heftbudg-spot"},
			"gridK":        2,
			"instances":    1,
			"replications": 3,
			"seed":         9,
			"market":       marketSpec,
		},
	})
	code, data, _ := post(t, ts, "/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d (%s)", code, data)
	}
	var sub struct {
		JobID string `json:"jobId"`
	}
	if err := json.Unmarshal(data, &sub); err != nil || sub.JobID == "" {
		t.Fatalf("submit body: %v (%s)", err, data)
	}
	view := pollJob(t, ts, sub.JobID)
	if view.Error != "" {
		t.Fatalf("job failed: %s", view.Error)
	}
	if !strings.Contains(string(view.Result), `"spotVMs"`) {
		t.Errorf("job result carries no spot aggregates: %s", view.Result)
	}
	if got := s.metrics.reg.Value("budgetwfd_spot_revocations_total", ""); got <= 0 {
		t.Errorf("spot revocation counter = %v after spot job, want > 0", got)
	}
}
