package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"budgetwf/internal/dist"
)

// TestWorkerEndpoints drives the membership API end to end: register,
// heartbeat, list, deregister, plus the validation edges.
func TestWorkerEndpoints(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	reg, _ := json.Marshal(dist.RegisterRequest{URL: "http://10.0.0.7:9091", Nonce: "n1"})
	code, data, _ := post(t, ts, "/v1/workers", reg)
	if code != http.StatusOK {
		t.Fatalf("register = %d (%s)", code, data)
	}
	var regResp struct {
		Worker     dist.WorkerInfo `json:"worker"`
		TTLSeconds float64         `json:"ttlSeconds"`
	}
	if err := json.Unmarshal(data, &regResp); err != nil {
		t.Fatalf("register body: %v (%s)", err, data)
	}
	if regResp.Worker.Epoch != 1 || regResp.Worker.State != dist.WorkerLive {
		t.Errorf("registered worker = %+v, want epoch-1 live", regResp.Worker)
	}
	if regResp.TTLSeconds <= 0 {
		t.Error("register response did not echo the heartbeat TTL")
	}

	// A new nonce for the same URL is a restarted process: epoch bump.
	reg2, _ := json.Marshal(dist.RegisterRequest{URL: "http://10.0.0.7:9091", Nonce: "n2"})
	_, data, _ = post(t, ts, "/v1/workers", reg2)
	json.Unmarshal(data, &regResp)
	if regResp.Worker.Epoch != 2 {
		t.Errorf("epoch after restart = %d, want 2", regResp.Worker.Epoch)
	}

	code, data = get(t, ts, "/v1/workers")
	if code != http.StatusOK {
		t.Fatalf("list = %d", code)
	}
	var list struct {
		Workers []dist.WorkerInfo `json:"workers"`
		Live    int               `json:"live"`
		Suspect int               `json:"suspect"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatalf("list body: %v (%s)", err, data)
	}
	if len(list.Workers) != 1 || list.Live != 1 || list.Suspect != 0 {
		t.Fatalf("list = %+v, want one live worker", list)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/workers?url=http://10.0.0.7:9091", nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("deregister = %d", resp.StatusCode)
	}
	_, data = get(t, ts, "/v1/workers")
	json.Unmarshal(data, &list)
	if len(list.Workers) != 0 {
		t.Fatalf("list after deregister = %+v, want empty", list)
	}

	// Validation edges all map to 400.
	for name, body := range map[string]string{
		"missing nonce":  `{"url":"http://w:1"}`,
		"relative url":   `{"url":"w:1","nonce":"n"}`,
		"trailing slash": `{"url":"http://w:1/","nonce":"n"}`,
		"bad scheme":     `{"url":"ftp://w:1","nonce":"n"}`,
		"empty body":     `{}`,
	} {
		code, data, _ := post(t, ts, "/v1/workers", []byte(body))
		if code != http.StatusBadRequest {
			t.Errorf("%s: register = %d, want 400 (%s)", name, code, data)
		}
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/workers", nil)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("deregister without url = %d, want 400", resp.StatusCode)
	}
}

// TestDynamicWorkerJob runs a job on a coordinator with NO static
// peers: a worker registered through POST /v1/workers receives the
// shards, and the merged result is byte-identical to a single-process
// sweep — the server-level version of TestCoordinatorDynamicMembership.
func TestDynamicWorkerJob(t *testing.T) {
	worker := newTestServer(t, Config{Workers: 1})
	tw := httptest.NewServer(worker.Handler())
	defer tw.Close()

	coord := newTestServer(t, Config{Workers: 1, HeartbeatTTL: time.Minute})
	tc := httptest.NewServer(coord.Handler())
	defer tc.Close()

	reg, _ := json.Marshal(dist.RegisterRequest{URL: tw.URL, Nonce: "proc-1"})
	if code, data, _ := post(t, tc, "/v1/workers", reg); code != http.StatusOK {
		t.Fatalf("register = %d (%s)", code, data)
	}

	code, data, _ := post(t, tc, "/v1/jobs", sweepJobBody(47))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d (%s)", code, data)
	}
	var sub struct {
		JobID string `json:"jobId"`
	}
	json.Unmarshal(data, &sub)
	view := pollJob(t, tc, sub.JobID)
	if view.State != dist.StateDone {
		t.Fatalf("job = %s (%s), want done", view.State, view.Error)
	}
	if n := worker.metrics.reg.Value("budgetwfd_requests_total", "shards"); n == 0 {
		t.Error("no shards reached the dynamically registered worker")
	}

	syncBody, _ := json.Marshal(map[string]any{
		"workflowType": "chain", "n": 6, "algorithms": []string{"heft", "heftbudg"},
		"gridK": 2, "instances": 1, "replications": 2, "seed": 47,
	})
	code, syncData, _ := post(t, tw, "/v1/sweep", syncBody)
	if code != http.StatusOK {
		t.Fatalf("sync sweep = %d", code)
	}
	var jobRes, syncRes map[string]json.RawMessage
	json.Unmarshal(view.Result, &jobRes)
	json.Unmarshal(syncData, &syncRes)
	for _, key := range []string{"series", "minCostMakespan", "minCostBudget", "baselineMakespan"} {
		if !bytes.Equal(jobRes[key], syncRes[key]) {
			t.Errorf("dynamic-worker result %q differs from single-process sweep", key)
		}
	}
}

// TestShardRequestEdges: a unit is a cell, so a range is bounded by the
// grid's cell count (422), and the replication-block field that once
// subdivided cells is now an unknown field like any other (400).
func TestShardRequestEdges(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const sweep = `"kind":"sweep","sweep":{"workflowType":"chain","n":6,"algorithms":["heft"],"gridK":2,"instances":1,"replications":4}`
	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"whole grid":      {`{` + sweep + `,"start":0,"end":2}`, http.StatusOK},
		"beyond the grid": {`{` + sweep + `,"start":0,"end":3}`, http.StatusUnprocessableEntity},
		"repBlock":        {`{` + sweep + `,"repBlock":2,"start":0,"end":2}`, http.StatusBadRequest},
	} {
		if code, data, _ := post(t, ts, "/v1/shards", []byte(tc.body)); code != tc.want {
			t.Errorf("%s: /v1/shards = %d, want %d (%s)", name, code, tc.want, data)
		}
	}
}
