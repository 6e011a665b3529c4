package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"budgetwf/internal/dist"
)

// sweepJobBody is a small async sweep campaign.
func sweepJobBody(seed uint64) []byte {
	b, _ := json.Marshal(map[string]any{
		"kind": "sweep",
		"sweep": map[string]any{
			"workflowType": "chain",
			"n":            6,
			"algorithms":   []string{"heft", "heftbudg"},
			"gridK":        2,
			"instances":    1,
			"replications": 2,
			"seed":         seed,
		},
	})
	return b
}

// pollJob polls GET /v1/jobs/{id} until the job is terminal.
func pollJob(t *testing.T, ts *httptest.Server, id string) dist.JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, data := get(t, ts, "/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET job: status %d (%s)", code, data)
		}
		var view dist.JobView
		if err := json.Unmarshal(data, &view); err != nil {
			t.Fatalf("job view: %v (%s)", err, data)
		}
		if view.State.Terminal() {
			return view
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return dist.JobView{}
}

// TestJobLifecycle drives a sweep campaign through the async path —
// submit, poll, fetch — and checks the merged result is byte-identical
// to the synchronous POST /v1/sweep on the same parameters, that
// resubmission dedupes, and that progress covered every unit.
func TestJobLifecycle(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	code, data, _ := post(t, ts, "/v1/jobs", sweepJobBody(11))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202 (%s)", code, data)
	}
	var sub struct {
		JobID   string `json:"jobId"`
		Deduped bool   `json:"deduped"`
		TraceID string `json:"traceId"`
	}
	if err := json.Unmarshal(data, &sub); err != nil || sub.JobID == "" {
		t.Fatalf("submit body: %v (%s)", err, data)
	}
	if sub.Deduped {
		t.Error("first submission reported deduped")
	}

	view := pollJob(t, ts, sub.JobID)
	if view.State != dist.StateDone {
		t.Fatalf("job state = %s (%s), want done", view.State, view.Error)
	}
	if view.UnitsDone != view.UnitsTotal || view.UnitsTotal == 0 {
		t.Errorf("progress %d/%d, want full coverage", view.UnitsDone, view.UnitsTotal)
	}

	// The job's result must match the synchronous sweep byte-for-byte
	// (modulo the per-request id, absent from job results).
	syncBody, _ := json.Marshal(map[string]any{
		"workflowType": "chain", "n": 6, "algorithms": []string{"heft", "heftbudg"},
		"gridK": 2, "instances": 1, "replications": 2, "seed": 11,
	})
	code, syncData, _ := post(t, ts, "/v1/sweep", syncBody)
	if code != http.StatusOK {
		t.Fatalf("sync sweep = %d (%s)", code, syncData)
	}
	var jobRes, syncRes map[string]json.RawMessage
	if err := json.Unmarshal(view.Result, &jobRes); err != nil {
		t.Fatalf("job result: %v", err)
	}
	if err := json.Unmarshal(syncData, &syncRes); err != nil {
		t.Fatalf("sync result: %v", err)
	}
	for _, key := range []string{"series", "minCostMakespan", "minCostBudget", "baselineMakespan"} {
		if !bytes.Equal(jobRes[key], syncRes[key]) {
			t.Errorf("job result %q differs from synchronous sweep:\n  job:  %s\n  sync: %s", key, jobRes[key], syncRes[key])
		}
	}

	// Resubmission dedupes onto the done job.
	code, data, _ = post(t, ts, "/v1/jobs", sweepJobBody(11))
	if code != http.StatusAccepted {
		t.Fatalf("resubmit = %d", code)
	}
	var sub2 struct {
		JobID   string `json:"jobId"`
		Deduped bool   `json:"deduped"`
	}
	json.Unmarshal(data, &sub2)
	if !sub2.Deduped || sub2.JobID != sub.JobID {
		t.Errorf("resubmit: deduped=%v id=%s, want dedupe onto %s", sub2.Deduped, sub2.JobID, sub.JobID)
	}
	if n := s.metrics.reg.Value("budgetwfd_jobs_total", "deduped"); n != 1 {
		t.Errorf("deduped metric = %v, want 1", n)
	}

	// The job's trace is retained in the ring under its trace id.
	if code, _ := get(t, ts, "/v1/traces/"+sub.TraceID); code != http.StatusOK {
		t.Errorf("job trace fetch = %d, want 200", code)
	}

	// Listing elides results.
	code, data = get(t, ts, "/v1/jobs")
	if code != http.StatusOK {
		t.Fatalf("list = %d", code)
	}
	var list struct {
		Jobs []dist.JobView `json:"jobs"`
	}
	if err := json.Unmarshal(data, &list); err != nil || len(list.Jobs) == 0 {
		t.Fatalf("list body: %v (%s)", err, data)
	}
	for _, j := range list.Jobs {
		if len(j.Result) != 0 {
			t.Error("list includes a result payload")
		}
	}
}

// TestClusterJobMatchesLocal wires three real daemons together — a
// coordinator configured with two worker peers — submits a campaign
// through POST /v1/jobs, and checks the distributed, shard-merged
// result is byte-identical to the same campaign run synchronously on a
// single process. This is the in-process version of the CI cluster
// smoke test.
func TestClusterJobMatchesLocal(t *testing.T) {
	w1 := newTestServer(t, Config{Workers: 1})
	w2 := newTestServer(t, Config{Workers: 1})
	tw1 := httptest.NewServer(w1.Handler())
	defer tw1.Close()
	tw2 := httptest.NewServer(w2.Handler())
	defer tw2.Close()

	coord := newTestServer(t, Config{Workers: 1, Peers: []string{tw1.URL, tw2.URL}})
	tc := httptest.NewServer(coord.Handler())
	defer tc.Close()

	code, data, _ := post(t, tc, "/v1/jobs", sweepJobBody(31))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d (%s)", code, data)
	}
	var sub struct {
		JobID string `json:"jobId"`
	}
	json.Unmarshal(data, &sub)
	view := pollJob(t, tc, sub.JobID)
	if view.State != dist.StateDone {
		t.Fatalf("cluster job = %s (%s), want done", view.State, view.Error)
	}
	if n := w1.metrics.reg.Value("budgetwfd_requests_total", "shards") + w2.metrics.reg.Value("budgetwfd_requests_total", "shards"); n == 0 {
		t.Error("no shards reached the workers — the job did not distribute")
	}

	syncBody, _ := json.Marshal(map[string]any{
		"workflowType": "chain", "n": 6, "algorithms": []string{"heft", "heftbudg"},
		"gridK": 2, "instances": 1, "replications": 2, "seed": 31,
	})
	code, syncData, _ := post(t, tw1, "/v1/sweep", syncBody)
	if code != http.StatusOK {
		t.Fatalf("sync sweep = %d", code)
	}
	var jobRes, syncRes map[string]json.RawMessage
	json.Unmarshal(view.Result, &jobRes)
	json.Unmarshal(syncData, &syncRes)
	for _, key := range []string{"series", "minCostMakespan", "minCostBudget", "baselineMakespan"} {
		if !bytes.Equal(jobRes[key], syncRes[key]) {
			t.Errorf("cluster result %q differs from single-process sweep", key)
		}
	}
}

// figureJobBody is a small Figure 1 campaign. n = 20 is the smallest
// size all three paper families generate (LIGO wants a multiple of 10,
// Montage at least 12).
func figureJobBody() []byte {
	b, _ := json.Marshal(map[string]any{
		"kind": "figure",
		"figure": map[string]any{
			"figure": 1, "n": 20, "gridK": 2, "instances": 1, "replications": 2,
		},
	})
	return b
}

// checkFigureMatchesSweeps asserts that a figure job's result holds one
// sweep per paper family, each byte-equal — on the keys
// TestClusterJobMatchesLocal compares — to POST /v1/sweep of that family
// on ts.
func checkFigureMatchesSweeps(t *testing.T, result json.RawMessage, ts *httptest.Server) {
	t.Helper()
	var fig struct {
		Figure int                          `json:"figure"`
		Sweeps []map[string]json.RawMessage `json:"sweeps"`
	}
	if err := json.Unmarshal(result, &fig); err != nil {
		t.Fatalf("figure result: %v", err)
	}
	families := []string{"cybershake", "ligo", "montage"}
	if fig.Figure != 1 || len(fig.Sweeps) != len(families) {
		t.Fatalf("figure %d with %d sweeps, want figure 1 with %d", fig.Figure, len(fig.Sweeps), len(families))
	}
	for i, family := range families {
		body, _ := json.Marshal(map[string]any{
			"workflowType": family, "n": 20, "gridK": 2, "instances": 1, "replications": 2,
			"algorithms": []string{"minmin", "heft", "minminbudg", "heftbudg"},
		})
		code, data, _ := post(t, ts, "/v1/sweep", body)
		if code != http.StatusOK {
			t.Fatalf("sync %s sweep = %d (%s)", family, code, data)
		}
		var syncRes map[string]json.RawMessage
		json.Unmarshal(data, &syncRes)
		for _, key := range []string{"series", "minCostMakespan", "minCostBudget", "baselineMakespan"} {
			if !bytes.Equal(fig.Sweeps[i][key], syncRes[key]) {
				t.Errorf("figure job's %s sweep: %q differs from /v1/sweep", family, key)
			}
		}
	}
}

// TestClusterFigureJobMatchesSweeps runs a figure job on a coordinator
// with two worker peers to done: each of its three family sweeps is the
// synchronous /v1/sweep of that family.
func TestClusterFigureJobMatchesSweeps(t *testing.T) {
	w1 := newTestServer(t, Config{Workers: 1})
	w2 := newTestServer(t, Config{Workers: 1})
	tw1 := httptest.NewServer(w1.Handler())
	defer tw1.Close()
	tw2 := httptest.NewServer(w2.Handler())
	defer tw2.Close()
	coord := newTestServer(t, Config{Workers: 1, Peers: []string{tw1.URL, tw2.URL}})
	tc := httptest.NewServer(coord.Handler())
	defer tc.Close()

	code, data, _ := post(t, tc, "/v1/jobs", figureJobBody())
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d (%s)", code, data)
	}
	var sub jobSubmitResponse
	json.Unmarshal(data, &sub)
	view := pollJob(t, tc, sub.JobID)
	if view.State != dist.StateDone {
		t.Fatalf("figure job = %s (%s), want done", view.State, view.Error)
	}
	checkFigureMatchesSweeps(t, view.Result, tw1)
}

// TestJobValidation maps spec violations onto the server's error
// discipline: scalar-domain → per-field 400, semantic → 422.
func TestJobValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cases := map[string]struct {
		body map[string]any
		want int
	}{
		"gridK over cap": {map[string]any{"kind": "sweep",
			"sweep": map[string]any{"workflowType": "chain", "n": 6, "gridK": 100000}}, http.StatusBadRequest},
		"unknown kind":    {map[string]any{"kind": "teleport"}, http.StatusBadRequest},
		"missing payload": {map[string]any{"kind": "sweep"}, http.StatusBadRequest},
		"unknown workflow type": {map[string]any{"kind": "sweep",
			"sweep": map[string]any{"workflowType": "escher", "n": 6}}, http.StatusUnprocessableEntity},
		"unknown algorithm": {map[string]any{"kind": "sweep",
			"sweep": map[string]any{"workflowType": "chain", "n": 6, "algorithms": []string{"nope"}}}, http.StatusUnprocessableEntity},
		"unknown figure": {map[string]any{"kind": "figure",
			"figure": map[string]any{"figure": 9}}, http.StatusUnprocessableEntity},
	}
	for name, tc := range cases {
		body, _ := json.Marshal(tc.body)
		code, data, _ := post(t, ts, "/v1/jobs", body)
		if code != tc.want {
			t.Errorf("%s: status = %d, want %d (%s)", name, code, tc.want, data)
		}
	}
	if code, _ := get(t, ts, "/v1/jobs/j00099-deadbeef"); code != http.StatusNotFound {
		t.Error("fetching an unknown job did not 404")
	}
}

// TestJobCancel: DELETE cancels both a queued job (immediately) and a
// running one (via its context).
func TestJobCancel(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	cancelJob := func(id string) int {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	// A long-running first job fills the single slot for seconds, so
	// the second submission stays queued until we cancel it.
	longBody, _ := json.Marshal(map[string]any{
		"kind": "sweep",
		"sweep": map[string]any{
			"workflowType": "montage", "n": 60, "gridK": 8,
			"instances": 3, "replications": 25, "seed": 5,
		},
	})
	code, data, _ := post(t, ts, "/v1/jobs", longBody)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d (%s)", code, data)
	}
	var running struct {
		JobID string `json:"jobId"`
	}
	json.Unmarshal(data, &running)

	code, data, _ = post(t, ts, "/v1/jobs", sweepJobBody(22))
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d (%s)", code, data)
	}
	var queued struct {
		JobID string `json:"jobId"`
	}
	json.Unmarshal(data, &queued)

	if code := cancelJob(queued.JobID); code != http.StatusOK {
		t.Fatalf("cancel queued = %d", code)
	}
	if view := pollJob(t, ts, queued.JobID); view.State != dist.StateCancelled {
		t.Errorf("queued job after cancel = %s, want cancelled", view.State)
	}
	if code := cancelJob(running.JobID); code != http.StatusOK {
		t.Fatalf("cancel running = %d", code)
	}
	if view := pollJob(t, ts, running.JobID); view.State != dist.StateCancelled {
		t.Errorf("running job after cancel = %s, want cancelled", view.State)
	}
	if code := cancelJob("j00099-deadbeef"); code != http.StatusNotFound {
		t.Errorf("cancel unknown job = %d, want 404", code)
	}
}

// TestServerDrainRequeuesJobs is the graceful-drain satellite: on
// shutdown, readiness flips before the listener closes, submissions
// are refused, and an in-flight job is re-queued to the journal so the
// next daemon finishes it.
func TestServerDrainRequeuesJobs(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "jobs.jsonl")
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	s := New(Config{Workers: 1, JournalPath: journal, Logger: logger})
	ts := httptest.NewServer(s.Handler())

	// A campaign big enough that it cannot finish before the drain
	// hits; montage at paper scale takes seconds.
	body, _ := json.Marshal(map[string]any{
		"kind": "sweep",
		"sweep": map[string]any{
			"workflowType": "montage", "n": 60, "gridK": 8,
			"instances": 3, "replications": 25, "seed": 5,
		},
	})
	code, data, _ := post(t, ts, "/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d (%s)", code, data)
	}
	var sub struct {
		JobID string `json:"jobId"`
	}
	json.Unmarshal(data, &sub)

	// Drain with an already-expired deadline: the job must be
	// interrupted and re-queued, never lost.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil && err != context.DeadlineExceeded {
		t.Fatalf("shutdown: %v", err)
	}

	// Readiness flipped, submissions refused (through the handler, the
	// listener in a real drain closes after this).
	if code, _ := get(t, ts, "/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain = %d, want 503", code)
	}
	if code, _, _ := post(t, ts, "/v1/jobs", sweepJobBody(6)); code != http.StatusServiceUnavailable {
		t.Errorf("submit during drain = %d, want 503", code)
	}
	ts.Close()

	// The next daemon replays the journal and resumes the job.
	j, restored, err := dist.OpenJournal(journal, dist.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(restored) != 1 || restored[0].State != dist.StatePending || restored[0].ID != sub.JobID {
		t.Fatalf("journal replay = %+v, want job %s pending", restored, sub.JobID)
	}
}

// TestFigureJobResumesAfterDrain: a figure job interrupted by a drain
// keeps the shards it journalled, and the next daemon on the same
// journal computes only the units they do not cover — the figure's
// three family sweeps are one unit enumeration, so its shards journal
// and resume like a sweep's — and still merges the uninterrupted result.
func TestFigureJobResumesAfterDrain(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "jobs.jsonl")
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))

	// The first daemon's worker answers two shards, then holds every
	// later one until the drain cancels it (or the test ends).
	worker := newTestServer(t, Config{Workers: 2})
	var answered atomic.Int64
	release := make(chan struct{})
	held := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if answered.Add(1) > 2 {
			// The server notices the client hang up only once the
			// body is read.
			io.Copy(io.Discard, r.Body)
			select {
			case <-r.Context().Done():
			case <-release:
			}
			return
		}
		worker.Handler().ServeHTTP(w, r)
	}))
	defer held.Close()
	defer close(release)
	first := New(Config{Workers: 1, JournalPath: journal, Logger: logger, Peers: []string{held.URL}})
	ts := httptest.NewServer(first.Handler())
	code, data, _ := post(t, ts, "/v1/jobs", figureJobBody())
	if code != http.StatusAccepted {
		t.Fatalf("submit = %d (%s)", code, data)
	}
	var sub jobSubmitResponse
	json.Unmarshal(data, &sub)
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		_, data := get(t, ts, "/v1/jobs/"+sub.JobID)
		var view dist.JobView
		json.Unmarshal(data, &view)
		if view.ShardsDone == 2 {
			break
		}
		if view.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("figure job never journalled two shards: %s", data)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := first.Shutdown(ctx); err != nil && err != context.DeadlineExceeded {
		t.Fatalf("shutdown: %v", err)
	}
	ts.Close()

	j, restored, err := dist.OpenJournal(journal, dist.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(restored) != 1 || restored[0].State != dist.StatePending || len(restored[0].Shards) != 2 {
		t.Fatalf("journal replay = %+v, want the job pending with two shards", restored)
	}
	journalled := 0
	for _, sh := range restored[0].Shards {
		journalled += sh.End - sh.Start
	}

	// The next daemon resumes the job; its worker counts the units it
	// is asked for.
	fresh := newTestServer(t, Config{Workers: 2})
	var computed atomic.Int64
	counting := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/shards" {
			body, _ := io.ReadAll(r.Body)
			var req dist.ShardRequest
			json.Unmarshal(body, &req)
			computed.Add(int64(req.End - req.Start))
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		fresh.Handler().ServeHTTP(w, r)
	}))
	defer counting.Close()
	second := newTestServer(t, Config{Workers: 1, JournalPath: journal, Peers: []string{counting.URL}})
	ts2 := httptest.NewServer(second.Handler())
	defer ts2.Close()
	view := pollJob(t, ts2, sub.JobID)
	if view.State != dist.StateDone {
		t.Fatalf("resumed figure job = %s (%s), want done", view.State, view.Error)
	}
	if got, want := int(computed.Load()), view.UnitsTotal-journalled; got != want || journalled == 0 {
		t.Errorf("resumed run computed %d units, want %d of %d (%d journalled)", got, want, view.UnitsTotal, journalled)
	}
	checkFigureMatchesSweeps(t, view.Result, counting)
}

// TestJournalFailureIsVisible: a journal write that fails no longer
// degrades durability silently. With the journal's file closed under a
// live server a job is still accepted and completes, but the append
// error counter moves, the durable gauge drops to 0 and /readyz says
// durable:false — still 200. A journal that never opened reads the same
// way, and a daemon without -journal reports no durable bit at all.
func TestJournalFailureIsVisible(t *testing.T) {
	readyz := func(ts *httptest.Server) map[string]any {
		t.Helper()
		code, data := get(t, ts, "/readyz")
		var body map[string]any
		if err := json.Unmarshal(data, &body); err != nil || code != http.StatusOK || body["status"] != "ready" {
			t.Fatalf("readyz = %d %s (%v)", code, data, err)
		}
		return body
	}

	s := newTestServer(t, Config{Workers: 1, JournalPath: filepath.Join(t.TempDir(), "jobs.jsonl")})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	m := s.metrics.reg
	if readyz(ts)["durable"] != true || m.Value("budgetwfd_journal_durable", "") != 1 || m.Value("budgetwfd_journal_append_errors_total", "") != 0 {
		t.Fatalf("healthy journal: readyz %v, durable gauge %v, append errors %v", readyz(ts),
			m.Value("budgetwfd_journal_durable", ""), m.Value("budgetwfd_journal_append_errors_total", ""))
	}
	s.journal.Close()
	code, data, _ := post(t, ts, "/v1/jobs", sweepJobBody(3))
	if code != http.StatusAccepted {
		t.Fatalf("submit with a broken journal = %d: %s", code, data)
	}
	var sub jobSubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	if v := pollJob(t, ts, sub.JobID); v.State != dist.StateDone {
		t.Fatalf("job on a broken journal ended %s: %s", v.State, v.Error)
	}
	if readyz(ts)["durable"] != false || m.Value("budgetwfd_journal_durable", "") != 0 || m.Value("budgetwfd_journal_append_errors_total", "") == 0 {
		t.Errorf("broken journal: readyz %v, durable gauge %v, append errors %v", readyz(ts),
			m.Value("budgetwfd_journal_durable", ""), m.Value("budgetwfd_journal_append_errors_total", ""))
	}

	unopened := newTestServer(t, Config{Workers: 1, JournalPath: filepath.Join(t.TempDir(), "no-such-dir", "jobs.jsonl")})
	tsU := httptest.NewServer(unopened.Handler())
	defer tsU.Close()
	if readyz(tsU)["durable"] != false || unopened.metrics.reg.Value("budgetwfd_journal_durable", "") != 0 {
		t.Errorf("journal that did not open: readyz %v, durable gauge %v", readyz(tsU), unopened.metrics.reg.Value("budgetwfd_journal_durable", ""))
	}

	plain := newTestServer(t, Config{Workers: 1})
	tsP := httptest.NewServer(plain.Handler())
	defer tsP.Close()
	_, prom := get(t, tsP, "/metrics?format=prometheus")
	if _, has := readyz(tsP)["durable"]; has || bytes.Contains(prom, []byte("budgetwfd_journal_durable")) ||
		!bytes.Contains(prom, []byte("\nbudgetwfd_journal_append_errors_total 0\n")) {
		t.Errorf("no journal asked for: readyz %v; want no durable bit, no durable gauge, append errors 0", readyz(tsP))
	}
}
