package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"budgetwf/internal/obs"
)

// TestLatencyHistSnapshotConsistency: the count reported by a snapshot
// is, by construction, the sum of its buckets — even while writers are
// racing the reader. (The earlier implementation kept an independent
// count atomic, so a reader could see count ≠ Σ buckets.)
func TestLatencyHistSnapshotConsistency(t *testing.T) {
	h := newLatencyHist()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			d := time.Duration(g+1) * 700 * time.Microsecond
			for {
				select {
				case <-stop:
					return
				default:
					h.Observe(d)
				}
			}
		}(g)
	}
	for i := 0; i < 1000; i++ {
		s := h.Snapshot()
		var sum uint64
		for _, b := range s.Buckets {
			sum += b
		}
		if s.Count != sum {
			t.Fatalf("snapshot count %d != bucket sum %d", s.Count, sum)
		}
	}
	close(stop)
	wg.Wait()
}

// TestLatencyHistSubMicrosecond: durations under a microsecond must
// still advance the sum (the old µs-granular sum added zero for them).
func TestLatencyHistSubMicrosecond(t *testing.T) {
	h := newLatencyHist()
	for i := 0; i < 1000; i++ {
		h.Observe(100 * time.Nanosecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	wantMs := 1000 * 100e-9 * 1e3 // 0.1 ms
	if math.Abs(s.SumMs-wantMs) > 1e-9 {
		t.Errorf("sumMs = %g, want %g (sub-µs observations must accumulate)", s.SumMs, wantMs)
	}
}

// TestHistSnapshotQuantile checks the interpolated quantiles against
// hand-computed values.
func TestHistSnapshotQuantile(t *testing.T) {
	cases := []struct {
		name    string
		observe []time.Duration
		q       float64
		want    float64 // ms
	}{
		// 10 obs in (1,2]: rank 5 of 10 → halfway through the bucket.
		{"uniform-one-bucket", repeat(1500*time.Microsecond, 10), 0.5, 1.5},
		// 9 in (0,1], 1 in (1000,2500]: p50 lands in the first bucket at
		// rank 5 of 9 → 5/9 ms; p99 rank 9.9 → 0.9 into the big bucket.
		{"skewed-p50", append(repeat(500*time.Microsecond, 9), 2*time.Second), 0.5, 5.0 / 9.0},
		{"skewed-p99", append(repeat(500*time.Microsecond, 9), 2*time.Second), 0.99, 1000 + 0.9*1500},
		// Everything beyond the last bound: clamp to it.
		{"overflow", repeat(10*time.Second, 4), 0.95, 5000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newLatencyHist()
			for _, d := range tc.observe {
				h.Observe(d)
			}
			got := h.Snapshot().Quantile(tc.q)
			if math.Abs(got-tc.want) > 1e-9 {
				t.Errorf("Quantile(%g) = %g ms, want %g ms", tc.q, got, tc.want)
			}
		})
	}
	if got := (obs.HistSnapshot{}).Quantile(0.5); got != 0 {
		t.Errorf("empty snapshot quantile = %g, want 0", got)
	}
}

// newLatencyHist returns a request-latency histogram as the server
// declares it, outside any server.
func newLatencyHist() *obs.Histogram {
	return obs.NewRegistry().HistogramVec("test_duration_seconds", "endpoint", "", "", latencyBoundsMs).With("x")
}

func repeat(d time.Duration, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = d
	}
	return out
}

// TestMetricsJSONHasQuantiles: the JSON /metrics body now carries
// estimated percentiles per endpoint.
func TestMetricsJSONHasQuantiles(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code, _ := get(t, ts, "/healthz"); code != http.StatusOK {
		t.Fatal("healthz failed")
	}
	code, data := get(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics = %d", code)
	}
	var root struct {
		LatencyMs map[string]struct {
			Count uint64  `json:"count"`
			P50   float64 `json:"p50"`
			P95   float64 `json:"p95"`
			P99   float64 `json:"p99"`
		} `json:"latencyMs"`
	}
	if err := json.Unmarshal(data, &root); err != nil {
		t.Fatalf("metrics body is not JSON: %v\n%s", err, data)
	}
	h, ok := root.LatencyMs["healthz"]
	if !ok {
		t.Fatalf("latencyMs has no healthz histogram: %s", data)
	}
	if h.Count == 0 {
		t.Errorf("healthz histogram empty after a request")
	}
	if h.P50 < 0 || h.P95 < h.P50 || h.P99 < h.P95 {
		t.Errorf("quantiles not monotone: p50=%g p95=%g p99=%g", h.P50, h.P95, h.P99)
	}
}

// TestPrometheusExposition drives traffic through the server, scrapes
// ?format=prometheus and checks the exposition-format invariants:
// HELP/TYPE pairs, expected counter series, and cumulative histogram
// buckets terminated by +Inf whose final value equals _count.
func TestPrometheusExposition(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wfJSON := workflowJSON(t, 15, 4)
	body := scheduleBody(t, wfJSON, "heftbudg", 50)
	for i := 0; i < 2; i++ { // second one is a cache hit
		if code, data, _ := post(t, ts, "/v1/schedule", body); code != http.StatusOK {
			t.Fatalf("schedule = %d: %s", code, data)
		}
	}

	req, _ := http.NewRequest("GET", ts.URL+"/metrics?format=prometheus", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != obs.PrometheusContentType {
		t.Errorf("Content-Type = %q, want %q", got, obs.PrometheusContentType)
	}

	lines := map[string]bool{}
	var order []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines[sc.Text()] = true
		order = append(order, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for _, want := range []string{
		"# TYPE budgetwfd_requests_total counter",
		"# TYPE budgetwfd_responses_total counter",
		"# TYPE budgetwfd_schedule_algorithms_total counter",
		"# TYPE budgetwfd_panics_total counter",
		"# TYPE budgetwfd_request_duration_seconds histogram",
		"# TYPE budgetwfd_cache_hits_total counter",
		"# TYPE budgetwfd_pool_queue_depth gauge",
		`budgetwfd_requests_total{endpoint="schedule"} 2`,
		`budgetwfd_responses_total{status="200"} 2`,
		`budgetwfd_schedule_algorithms_total{algorithm="heftbudg"} 2`,
		"budgetwfd_panics_total 0",
		"budgetwfd_cache_hits_total 1",
		"budgetwfd_cache_misses_total 1",
		"budgetwfd_cache_enabled 1",
	} {
		if !lines[want] {
			t.Errorf("exposition missing line %q", want)
		}
	}

	// Every # HELP must be followed (eventually, same family) by a
	// # TYPE; cheaper: count them equal.
	help, typ := 0, 0
	for _, l := range order {
		if strings.HasPrefix(l, "# HELP ") {
			help++
		}
		if strings.HasPrefix(l, "# TYPE ") {
			typ++
		}
	}
	if help == 0 || help != typ {
		t.Errorf("HELP lines (%d) != TYPE lines (%d)", help, typ)
	}

	// Histogram invariants for the schedule endpoint: buckets
	// cumulative, +Inf bucket present and equal to _count.
	var prev int64 = -1
	var infVal, countVal int64 = -1, -2
	for _, l := range order {
		if strings.HasPrefix(l, `budgetwfd_request_duration_seconds_bucket{endpoint="schedule",`) {
			fields := strings.Fields(l)
			v, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
			if err != nil {
				t.Fatalf("bad bucket line %q: %v", l, err)
			}
			if v < prev {
				t.Errorf("buckets not cumulative: %q after %d", l, prev)
			}
			prev = v
			if strings.Contains(l, `le="+Inf"`) {
				infVal = v
			}
		}
		if strings.HasPrefix(l, `budgetwfd_request_duration_seconds_count{endpoint="schedule"}`) {
			fields := strings.Fields(l)
			v, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
			if err != nil {
				t.Fatalf("bad count line %q: %v", l, err)
			}
			countVal = v
		}
	}
	if infVal < 0 {
		t.Fatalf("no +Inf bucket for schedule endpoint")
	}
	if infVal != countVal {
		t.Errorf("+Inf bucket %d != _count %d", infVal, countVal)
	}
	if countVal != 2 {
		t.Errorf("schedule _count = %d, want 2", countVal)
	}
}

// TestMetricsContentNegotiation: the Accept header selects the
// exposition when no format parameter is present, and the parameter
// overrides the header in both directions.
func TestMetricsContentNegotiation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	fetch := func(path, accept string) (string, string) {
		req, _ := http.NewRequest("GET", ts.URL+path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			b.WriteString(sc.Text())
			b.WriteString("\n")
		}
		return resp.Header.Get("Content-Type"), b.String()
	}

	if ct, body := fetch("/metrics", ""); ct != "application/json" || !strings.HasPrefix(body, "{") {
		t.Errorf("default /metrics: ct=%q bodyPrefix=%.20q, want JSON", ct, body)
	}
	if ct, _ := fetch("/metrics", "text/plain; version=0.0.4"); ct != obs.PrometheusContentType {
		t.Errorf("Accept: text/plain got ct=%q, want exposition", ct)
	}
	if ct, _ := fetch("/metrics", "application/openmetrics-text"); ct != obs.PrometheusContentType {
		t.Errorf("Accept: openmetrics got ct=%q, want exposition", ct)
	}
	if ct, _ := fetch("/metrics?format=json", "text/plain"); ct != "application/json" {
		t.Errorf("format=json must override Accept, got ct=%q", ct)
	}
	if ct, _ := fetch("/metrics?format=prometheus", "application/json"); ct != obs.PrometheusContentType {
		t.Errorf("format=prometheus must override Accept, got ct=%q", ct)
	}
}

// TestPrometheusLabelEscaping: a label value is escaped once, as the
// exposition format defines (backslash, double quote, line feed), so a
// hostile tenant ID scraped back and unescaped is the ID that was
// submitted. (Tenant IDs are only checked non-empty.)
func TestPrometheusLabelEscaping(t *testing.T) {
	s := poolTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ids := []string{`a"b`, "a\nb", "a\x01b", `a\b`, `a\nb`, "plain"}
	for i, id := range ids {
		body := submitBody(t, map[string]any{"id": id}, workflowJSON(t, 12, uint64(i+1)), "heftbudg", 50)
		if code, data, _ := post(t, ts, "/v1/submit", body); code != http.StatusOK {
			t.Fatalf("submit as %q = %d: %s", id, code, data)
		}
	}
	_, text := get(t, ts, "/metrics?format=prometheus")
	var got []string
	const prefix = `budgetwfd_tenant_submissions_total{tenant="`
	for _, line := range strings.Split(string(text), "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		// Unescape per the format: the value ends at the first quote a
		// backslash does not precede.
		var id strings.Builder
		rest := line[len(prefix):]
		for i := 0; i < len(rest) && rest[i] != '"'; i++ {
			if rest[i] != '\\' {
				id.WriteByte(rest[i])
				continue
			}
			i++
			switch rest[i] {
			case 'n':
				id.WriteByte('\n')
			case '\\', '"':
				id.WriteByte(rest[i])
			default:
				t.Errorf("escape \\%c is not defined by the exposition format: %s", rest[i], line)
			}
		}
		got = append(got, id.String())
	}
	sort.Strings(ids)
	sort.Strings(got)
	if !slices.Equal(got, ids) {
		t.Errorf("scraped tenants %q, submitted %q", got, ids)
	}
}

// BenchmarkObserveRequest is the metrics work wrap does per request —
// endpoint counter, status counter, latency histogram — with the
// handles resolved as wrap resolves them. It formats nothing and
// allocates nothing.
func BenchmarkObserveRequest(b *testing.B) {
	s := New(Config{Workers: 1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	defer s.Shutdown(context.Background())
	requests, latency := s.metrics.requests.With("schedule"), s.metrics.latency.With("schedule")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		requests.Inc()
		s.metrics.status(200 + i%5*100).Inc()
		latency.Observe(150 * time.Microsecond)
	}
}

// TestReadmeListsEveryFamily guards the README's "Metrics reference"
// table: it has one row per declared family, no more and no fewer.
func TestReadmeListsEveryFamily(t *testing.T) {
	readme, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(readme), "\n### Metrics reference\n")
	if !found {
		t.Fatal(`README.md has no "### Metrics reference" section`)
	}
	section, _, _ = strings.Cut(section, "\n#")
	documented := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if name, _, ok := strings.Cut(strings.TrimPrefix(line, "| `"), "` |"); ok && strings.HasPrefix(line, "| `") {
			documented[name] = true
		}
	}

	// Every family is present on a server with a journal and the pool.
	s := newTestServer(t, Config{Workers: 1, EnablePool: true, JournalPath: filepath.Join(t.TempDir(), "jobs.jsonl")})
	var buf bytes.Buffer
	s.metrics.reg.WritePrometheus(&buf)
	declared := map[string]bool{}
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ := strings.Cut(rest, " ")
			declared[name] = true
			if !documented[name] {
				t.Errorf("family %s is declared but has no row in the README's Metrics reference", name)
			}
		}
	}
	for name := range documented {
		if !declared[name] {
			t.Errorf("the README's Metrics reference lists %s, which no declaration serves", name)
		}
	}
	if len(declared) < 60 {
		t.Errorf("only %d families scraped; the fully enabled server should expose them all", len(declared))
	}
}
