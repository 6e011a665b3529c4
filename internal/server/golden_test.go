package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.{prom,json} from this run")

// maskedProm and maskedJSON name every value the golden comparison
// ignores, with the reason; everything else in both /metrics renderings
// is compared byte for byte (Prometheus) or path by path (JSON).
var maskedProm = []struct {
	re  *regexp.Regexp
	why string
}{
	{regexp.MustCompile(`^budgetwfd_request_duration_seconds_(bucket|sum)\{`), "wall-clock request latency"},
	{regexp.MustCompile(`^budgetwfd_journal_snapshot_age_seconds `), "wall-clock age of the snapshot"},
	{regexp.MustCompile(`^budgetwfd_journal_tail_bytes `), "journal records carry RFC 3339 timestamps whose length varies with trailing zeros"},
	{regexp.MustCompile(`^budgetwfd_trace_spans_dropped_total `), "process-wide obs.DroppedTotal, moved by other tests in the binary"},
	{regexp.MustCompile(`^budgetwfd_pool_in_flight `), "a worker slot is released after its response is written, so the last request may still hold it"},
	{regexp.MustCompile(`^go_`), "Go runtime state"},
}

var maskedJSON = []struct {
	re  *regexp.Regexp
	why string
}{
	{regexp.MustCompile(`^latencyMs\.[^.]+\.(sumMs|le[0-9.]+|inf|p50|p95|p99)$`), "wall-clock request latency"},
	{regexp.MustCompile(`^cluster\.journal\.tailBytes$`), "journal records carry RFC 3339 timestamps whose length varies with trailing zeros"},
	{regexp.MustCompile(`^traces\.spansDropped$`), "process-wide obs.DroppedTotal, moved by other tests in the binary"},
	{regexp.MustCompile(`^pool\.inFlight$`), "a worker slot is released after its response is written, so the last request may still hold it"},
	{regexp.MustCompile(`^runtime\.`), "Go runtime state"},
}

// TestMetricsGolden drives one fixed request script through a server
// with a journal and the shared pool, then pins both /metrics
// renderings: the Prometheus text against testdata/metrics.prom and the
// JSON document's flattened key paths and values against
// testdata/metrics.json. Run with -update to regenerate.
func TestMetricsGolden(t *testing.T) {
	s := newTestServer(t, Config{
		Workers:            2,
		JournalPath:        filepath.Join(t.TempDir(), "jobs.jsonl"),
		EnablePool:         true,
		PoolBillingQuantum: 3600,
		PoolTimeToShutdown: 360,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	mustPost := func(path string, body []byte, want int) []byte {
		t.Helper()
		code, data, _ := post(t, ts, path, body)
		if code != want {
			t.Fatalf("POST %s = %d, want %d: %s", path, code, want, data)
		}
		return data
	}

	wfJSON := workflowJSON(t, 15, 11)
	schedReq := scheduleBody(t, wfJSON, "heftbudg", 50)
	mustPost("/v1/schedule", schedReq, http.StatusOK)
	var planned scheduleResponse
	if err := json.Unmarshal(mustPost("/v1/schedule", schedReq, http.StatusOK), &planned); err != nil {
		t.Fatal(err)
	}
	if !planned.Cached {
		t.Fatal("second schedule was not a cache hit")
	}
	mustPost("/v1/schedule", scheduleBody(t, wfJSON, "no-such-algorithm", 50), http.StatusUnprocessableEntity)
	simBody, _ := json.Marshal(map[string]any{
		"workflow": wfJSON, "schedule": planned.Schedule, "replications": 5, "seed": 42, "budget": 50,
	})
	mustPost("/v1/simulate", simBody, http.StatusOK)
	sweepBody, _ := json.Marshal(map[string]any{
		"workflowType": "montage", "n": 15, "gridK": 2, "instances": 1, "replications": 2,
		"algorithms": []string{"heft", "heftbudg"},
	})
	mustPost("/v1/sweep", sweepBody, http.StatusOK)

	var submitted jobSubmitResponse
	if err := json.Unmarshal(mustPost("/v1/jobs", sweepJobBody(7), http.StatusAccepted), &submitted); err != nil {
		t.Fatal(err)
	}
	// Wait on the store, not over HTTP: a poll loop would make the jobs
	// endpoint's request count depend on timing.
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if v, ok := s.jobs.Get(submitted.JobID); ok && v.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
	}
	if code, data := get(t, ts, "/v1/jobs/"+submitted.JobID); code != http.StatusOK {
		t.Fatalf("GET job = %d: %s", code, data)
	}
	mustPost("/v1/submit", submitBody(t, map[string]any{"id": "alice"}, workflowJSON(t, 12, 1), "heftbudg", 50), http.StatusOK)

	// The Prometheus scrape goes first, so the JSON one counts it.
	_, prom := get(t, ts, "/metrics?format=prometheus")
	_, doc := get(t, ts, "/metrics")
	compareGolden(t, "metrics.prom", maskPrometheus(prom))
	compareGolden(t, "metrics.json", flattenJSON(t, doc))
}

// compareGolden diffs got against testdata/<name>, or rewrites the file
// under -update.
func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s", name, i+1, g, w)
		}
	}
}

// maskPrometheus replaces the value of every masked series with "*".
func maskPrometheus(body []byte) []byte {
	lines := strings.Split(string(body), "\n")
	for i, l := range lines {
		for _, m := range maskedProm {
			if m.re.MatchString(l) {
				lines[i] = l[:strings.LastIndexByte(l, ' ')] + " *"
			}
		}
	}
	return []byte(strings.Join(lines, "\n"))
}

// flattenJSON renders a JSON document as sorted "path = value" lines,
// array elements by index, masked values as "*".
func flattenJSON(t *testing.T, doc []byte) []byte {
	t.Helper()
	var root any
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.UseNumber()
	if err := dec.Decode(&root); err != nil {
		t.Fatalf("metrics body is not JSON: %v\n%s", err, doc)
	}
	var lines []string
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, c := range v {
				walk(strings.TrimPrefix(path+"."+k, "."), c)
			}
		case []any:
			for i, c := range v {
				walk(fmt.Sprintf("%s.%d", path, i), c)
			}
		default:
			val, _ := json.Marshal(v)
			for _, m := range maskedJSON {
				if m.re.MatchString(path) {
					val = []byte("*")
				}
			}
			lines = append(lines, fmt.Sprintf("%s = %s", path, val))
		}
	}
	walk("", root)
	sort.Strings(lines)
	return []byte(strings.Join(lines, "\n") + "\n")
}
