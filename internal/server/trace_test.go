package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"budgetwf/internal/dist"
	"budgetwf/internal/obs"
)

// spanNames collects every span name in the tree, depth-first.
func spanNames(s *obs.SpanJSON, into *[]string) {
	*into = append(*into, s.Name)
	for _, c := range s.Children {
		spanNames(c, into)
	}
}

// countEvents tallies events named name across the tree.
func countEvents(s *obs.SpanJSON, name string) int {
	n := 0
	for _, e := range s.Events {
		if e.Name == name {
			n++
		}
	}
	for _, c := range s.Children {
		n += countEvents(c, name)
	}
	return n
}

func hasSpan(s *obs.SpanJSON, name string) bool {
	if s.Name == name {
		return true
	}
	for _, c := range s.Children {
		if hasSpan(c, name) {
			return true
		}
	}
	return false
}

// TestScheduleTraceRoundtrip is the daemon acceptance roundtrip: a
// traced schedule request returns the span tree inline — root span,
// plan child, the planner's per-task budget-guard events — and the
// same tree is retrievable afterwards via GET /v1/traces/{requestId}.
func TestScheduleTraceRoundtrip(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const n = 20
	wfJSON := workflowJSON(t, n, 5)
	code, data, _ := post(t, ts, "/v1/schedule?trace=1", scheduleBody(t, wfJSON, "heftbudg+", 50))
	if code != http.StatusOK {
		t.Fatalf("schedule = %d: %s", code, data)
	}
	var resp scheduleResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil || resp.Trace.Root == nil {
		t.Fatalf("?trace=1 response has no trace: %s", data)
	}
	if resp.Trace.ID != resp.RequestID {
		t.Errorf("trace id %q != request id %q", resp.Trace.ID, resp.RequestID)
	}
	for _, want := range []string{"schedule", "plan", "plan:heftbudg+", "refine", "simulate-deterministic"} {
		if !hasSpan(resp.Trace.Root, want) {
			var names []string
			spanNames(resp.Trace.Root, &names)
			t.Fatalf("inline trace missing span %q (have %v)", want, names)
		}
	}
	if got := countEvents(resp.Trace.Root, "budget-guard"); got != n {
		t.Errorf("inline trace has %d budget-guard events, want %d", got, n)
	}

	// The same tree, by request ID, after the response went out.
	code, data = get(t, ts, "/v1/traces/"+resp.RequestID)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/traces/%s = %d: %s", resp.RequestID, code, data)
	}
	var stored obs.TraceJSON
	if err := json.Unmarshal(data, &stored); err != nil {
		t.Fatal(err)
	}
	var inlineNames, storedNames []string
	spanNames(resp.Trace.Root, &inlineNames)
	spanNames(stored.Root, &storedNames)
	if len(inlineNames) != len(storedNames) {
		t.Fatalf("stored tree shape differs: inline %v vs stored %v", inlineNames, storedNames)
	}
	for i := range inlineNames {
		if inlineNames[i] != storedNames[i] {
			t.Fatalf("stored tree shape differs at %d: %q vs %q", i, inlineNames[i], storedNames[i])
		}
	}
	if got := countEvents(stored.Root, "budget-guard"); got != n {
		t.Errorf("stored trace has %d budget-guard events, want %d", got, n)
	}

	// The listing names the request.
	code, data = get(t, ts, "/v1/traces")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/traces = %d", code)
	}
	var list struct {
		Traces []string `json:"traces"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, id := range list.Traces {
		if id == resp.RequestID {
			found = true
		}
	}
	if !found {
		t.Errorf("trace list %v does not name %s", list.Traces, resp.RequestID)
	}

	// Unknown IDs are 404s.
	if code, _ := get(t, ts, "/v1/traces/nope"); code != http.StatusNotFound {
		t.Errorf("GET /v1/traces/nope = %d, want 404", code)
	}
}

// TestScheduleWithoutTraceOmitsTree: the default path carries no trace
// field, and a cache hit with ?trace=1 reports the hit as an event.
func TestScheduleWithoutTraceOmitsTree(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wfJSON := workflowJSON(t, 15, 6)
	body := scheduleBody(t, wfJSON, "heftbudg", 50)
	code, data, _ := post(t, ts, "/v1/schedule", body)
	if code != http.StatusOK {
		t.Fatalf("schedule = %d: %s", code, data)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	if _, present := raw["trace"]; present {
		t.Errorf("untraced response carries a trace field")
	}

	// Identical request → cache hit; traced, the hit shows as an event.
	code, data, _ = post(t, ts, "/v1/schedule?trace=1", body)
	if code != http.StatusOK {
		t.Fatalf("schedule (cached) = %d: %s", code, data)
	}
	var resp scheduleResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Fatalf("second identical request not cached")
	}
	if resp.Trace == nil || countEvents(resp.Trace.Root, "cache-hit") != 1 {
		t.Errorf("cached traced response lacks the cache-hit event")
	}
}

// TestSimulateFaultTraceHasCrashEvents: a traced fault-injection
// simulate carries per-replication spans whose events include the
// fault lifecycle (here: boot failures and vetoed recoveries).
func TestSimulateFaultTraceHasCrashEvents(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wfJSON, schedJSON := plannedPair(t, ts, 15, 11)
	body, _ := json.Marshal(map[string]any{
		"workflow":     wfJSON,
		"schedule":     schedJSON,
		"replications": 3,
		"seed":         42,
		"budget":       0.0001,
		"faults": map[string]any{
			"bootFailProb": 0.999,
			"maxRetries":   1,
			"seed":         7,
		},
	})
	code, data, _ := post(t, ts, "/v1/simulate?trace=1", body)
	if code != http.StatusOK {
		t.Fatalf("simulate = %d: %s", code, data)
	}
	var resp simulateResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil {
		t.Fatalf("traced simulate has no trace")
	}
	if !hasSpan(resp.Trace.Root, "simulate-batch") || !hasSpan(resp.Trace.Root, "replication") {
		var names []string
		spanNames(resp.Trace.Root, &names)
		t.Fatalf("simulate trace lacks batch/replication spans: %v", names)
	}
	if got := countEvents(resp.Trace.Root, "boot-failure"); got == 0 {
		t.Errorf("doomed boots produced no boot-failure events")
	}
	if got := countEvents(resp.Trace.Root, "recovery-vetoed"); got == 0 {
		t.Errorf("tight budget produced no recovery-vetoed events")
	}
}

// TestShardTraceExportAndFlightRecorder: a traced POST /v1/shards
// carries the remote span context in the header, returns the worker's
// exported compute subtree, and leaves the request trace in the ring
// under an id derived from the coordinator's context — the worker-side
// flight recorder.
func TestShardTraceExportAndFlightRecorder(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(map[string]any{
		"kind": "sweep",
		"sweep": map[string]any{
			"workflowType": "chain", "n": 6, "algorithms": []string{"heft"},
			"gridK": 2, "instances": 1, "replications": 2, "seed": 3,
		},
		"start": 0, "end": 2, "trace": true,
	})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/shards", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(obs.TraceHeader, "job-abc;3;1")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("shards = %d: %s", resp.StatusCode, data)
	}
	var out dist.ShardResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil || out.Trace.Name != "compute" {
		t.Fatalf("traced shard response lacks the compute subtree: %s", data)
	}
	if out.Trace.EndNs < out.Trace.StartNs {
		t.Errorf("exported compute span runs backwards: [%d,%d]", out.Trace.StartNs, out.Trace.EndNs)
	}
	if got := s.metrics.reg.Value("budgetwfd_trace_spans_exported_total", ""); got < 1 {
		t.Errorf("TraceSpansExported = %v, want >= 1", got)
	}

	// The flight recorder retains the request trace under the derived
	// id <parentTrace>.<parentSpan>.<requestId>.
	code, data := get(t, ts, "/v1/traces")
	if code != http.StatusOK {
		t.Fatalf("GET /v1/traces = %d", code)
	}
	var list struct {
		Traces []string `json:"traces"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatal(err)
	}
	var derived string
	for _, id := range list.Traces {
		if strings.HasPrefix(id, "job-abc.3.") {
			derived = id
		}
	}
	if derived == "" {
		t.Fatalf("trace list %v has no id derived from job-abc;3;1", list.Traces)
	}
	code, data = get(t, ts, "/v1/traces/"+derived)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/traces/%s = %d", derived, code)
	}
	var stored obs.TraceJSON
	if err := json.Unmarshal(data, &stored); err != nil {
		t.Fatal(err)
	}
	if !hasSpan(stored.Root, "compute") {
		var names []string
		spanNames(stored.Root, &names)
		t.Fatalf("flight-recorder trace lacks the compute span: %v", names)
	}
	if stored.Root.Attrs["parentTrace"] != "job-abc" || stored.Root.Attrs["parentSpan"] != float64(3) {
		t.Errorf("root attrs %v lack the remote parent context", stored.Root.Attrs)
	}

	// An untraced shard request exports nothing.
	body, _ = json.Marshal(map[string]any{
		"kind": "sweep",
		"sweep": map[string]any{
			"workflowType": "chain", "n": 6, "algorithms": []string{"heft"},
			"gridK": 2, "instances": 1, "replications": 2, "seed": 3,
		},
		"start": 0, "end": 2,
	})
	code, data, _ = post(t, ts, "/v1/shards", body)
	if code != http.StatusOK {
		t.Fatalf("untraced shards = %d", code)
	}
	var raw map[string]json.RawMessage
	json.Unmarshal(data, &raw)
	if _, present := raw["trace"]; present {
		t.Errorf("untraced shard response carries a trace field")
	}
}

// TestClusterJobStitchedTrace is the end-to-end acceptance path: a job
// sharded over two worker daemons yields one stitched trace on the
// coordinator, every compute span attributed to its worker, and the
// Chrome export lanes the three processes separately.
func TestClusterJobStitchedTrace(t *testing.T) {
	w1 := newTestServer(t, Config{Workers: 1})
	w2 := newTestServer(t, Config{Workers: 1})
	tw1 := httptest.NewServer(w1.Handler())
	defer tw1.Close()
	tw2 := httptest.NewServer(w2.Handler())
	defer tw2.Close()
	coord := newTestServer(t, Config{Workers: 1, Peers: []string{tw1.URL, tw2.URL}})
	tc := httptest.NewServer(coord.Handler())
	defer tc.Close()

	code, data, _ := post(t, tc, "/v1/jobs", sweepJobBody(77))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d (%s)", code, data)
	}
	var sub struct {
		JobID   string `json:"jobId"`
		TraceID string `json:"traceId"`
	}
	json.Unmarshal(data, &sub)
	if sub.TraceID == "" {
		t.Fatalf("submit response has no traceId: %s", data)
	}
	if view := pollJob(t, tc, sub.JobID); view.State != dist.StateDone {
		t.Fatalf("job = %s (%s), want done", view.State, view.Error)
	}

	code, data = get(t, tc, "/v1/traces/"+sub.TraceID)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/traces/%s = %d", sub.TraceID, code)
	}
	var tr obs.TraceJSON
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	procs := map[any]int{}
	for _, sh := range tr.Root.Children {
		if sh.Name != "shard" {
			continue
		}
		for _, c := range sh.Children {
			if c.Name == "compute" {
				procs[c.Attrs[obs.ProcessAttr]]++
				if _, ok := sh.Attrs["clockOffsetUs"]; !ok {
					t.Errorf("stitched shard span lacks clockOffsetUs: %v", sh.Attrs)
				}
			}
		}
	}
	if len(procs) < 2 || procs[tw1.URL] == 0 || procs[tw2.URL] == 0 {
		t.Fatalf("stitched compute spans per process = %v, want both %s and %s", procs, tw1.URL, tw2.URL)
	}

	// Chrome export: one process_name meta per process, spans laned
	// under distinct non-zero pids for the workers.
	code, data = get(t, tc, "/v1/traces/"+sub.TraceID+"?format=chrome")
	if code != http.StatusOK {
		t.Fatalf("chrome export = %d", code)
	}
	var doc obs.ChromeTrace
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	metas, workerPids, coordSpans := 0, map[int]bool{}, 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			metas++
		}
		if ev.Ph == "X" {
			if ev.PID == 0 {
				coordSpans++
			} else {
				workerPids[ev.PID] = true
			}
		}
	}
	if metas != 3 {
		t.Errorf("process_name metas = %d, want 3 (coordinator + 2 workers)", metas)
	}
	if coordSpans == 0 || len(workerPids) != 2 {
		t.Errorf("chrome lanes: %d coordinator spans, %d worker pids; want >0 and 2", coordSpans, len(workerPids))
	}

	// Each worker's flight recorder kept its shard traces, keyed by the
	// job's trace id.
	for _, tw := range []*httptest.Server{tw1, tw2} {
		code, data = get(t, tw, "/v1/traces")
		if code != http.StatusOK {
			t.Fatalf("worker GET /v1/traces = %d", code)
		}
		var list struct {
			Traces []string `json:"traces"`
		}
		json.Unmarshal(data, &list)
		found := false
		for _, id := range list.Traces {
			if strings.HasPrefix(id, sub.TraceID+".") {
				found = true
			}
		}
		if !found {
			t.Errorf("worker flight recorder %v retains nothing for %s", list.Traces, sub.TraceID)
		}
	}
}

// TestSimulatePlainTraceHasReplicationSpans: without faults the traced
// batch uses the Runner's per-replication spans.
func TestSimulatePlainTraceHasReplicationSpans(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wfJSON, schedJSON := plannedPair(t, ts, 15, 3)
	body, _ := json.Marshal(map[string]any{
		"workflow":     wfJSON,
		"schedule":     schedJSON,
		"replications": 4,
		"seed":         1,
	})
	code, data, _ := post(t, ts, "/v1/simulate?trace=1", body)
	if code != http.StatusOK {
		t.Fatalf("simulate = %d: %s", code, data)
	}
	var resp simulateResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil {
		t.Fatalf("traced simulate has no trace")
	}
	reps := 0
	var count func(s *obs.SpanJSON)
	count = func(s *obs.SpanJSON) {
		if s.Name == "replication" {
			reps++
		}
		for _, c := range s.Children {
			count(c)
		}
	}
	count(resp.Trace.Root)
	if reps != 4 {
		t.Errorf("replication spans = %d, want 4", reps)
	}
}
