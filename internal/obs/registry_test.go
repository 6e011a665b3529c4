package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

type poolSnap struct {
	Size  int     `json:"size"`
	Spend float64 `json:"spend"`
	Note  string  `json:"note"` // JSON only: no family reads it
}

// testRegistry declares one family of each kind.
func testRegistry() (*Registry, *Counter, *Counter, *CounterVec, *HistogramVec) {
	r := NewRegistry()
	hits := r.Counter("app_hits_total", "hits", "Hits.")
	cost := r.FloatCounter("app_cost_total", "money.cost", "Cost.")
	byCode := r.CounterVec("app_responses_total", "code", "responses", "Responses, by code.")
	lat := r.HistogramVec("app_duration_seconds", "op", "latencyMs", "Latency, by op.", []float64{1, 10})
	r.Func(Desc{Name: "app_up", Type: "gauge", Help: "Exposition only."}, func() float64 { return 1 })
	g := NewGroup(r, "pool", func() poolSnap { return poolSnap{Size: 3, Spend: 1.5e-7, Note: "n"} })
	g.Value(Desc{Name: "app_pool_size", Type: "gauge", Help: "Pool size."}, func(p poolSnap) float64 { return float64(p.Size) })
	g.Series(Desc{Name: "app_pool_spend", Type: "counter", Label: "who", Float: true, Help: "Spend."},
		func(p poolSnap, emit func(string, float64)) { emit("b\"\\\nz", p.Spend); emit("a", 2) })
	return r, hits, cost, byCode, lat
}

// TestRegistryRendersBothForms pins the two renderings of one table:
// declaration order, label order and escaping, integer and %g number
// forms, cumulative buckets in seconds, and the JSON document's shape.
func TestRegistryRendersBothForms(t *testing.T) {
	r, hits, cost, byCode, lat := testRegistry()
	hits.Add(1234567)
	cost.Add(0.25)
	byCode.With("500").Inc()
	byCode.With("200").Add(2)
	byCode.With("404") // resolved, never counted: no series
	lat.With("plan").Observe(500 * time.Microsecond)
	lat.With("plan").Observe(5 * time.Millisecond)
	lat.With("plan").Observe(time.Second)

	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	want := `# HELP app_hits_total Hits.
# TYPE app_hits_total counter
app_hits_total 1234567
# HELP app_cost_total Cost.
# TYPE app_cost_total counter
app_cost_total 0.25
# HELP app_responses_total Responses, by code.
# TYPE app_responses_total counter
app_responses_total{code="200"} 2
app_responses_total{code="500"} 1
# HELP app_duration_seconds Latency, by op.
# TYPE app_duration_seconds histogram
app_duration_seconds_bucket{op="plan",le="0.001"} 1
app_duration_seconds_bucket{op="plan",le="0.01"} 2
app_duration_seconds_bucket{op="plan",le="+Inf"} 3
app_duration_seconds_sum{op="plan"} 1.0055
app_duration_seconds_count{op="plan"} 3
# HELP app_up Exposition only.
# TYPE app_up gauge
app_up 1
# HELP app_pool_size Pool size.
# TYPE app_pool_size gauge
app_pool_size 3
# HELP app_pool_spend Spend.
# TYPE app_pool_spend counter
app_pool_spend{who="a"} 2
app_pool_spend{who="b\"\\\nz"} 1.5e-07
`
	if got := buf.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}

	var doc map[string]any
	if err := json.Unmarshal([]byte(r.String()), &doc); err != nil {
		t.Fatalf("JSON document: %v\n%s", err, r.String())
	}
	plan := doc["latencyMs"].(map[string]any)["plan"].(map[string]any)
	delete(doc, "latencyMs")
	wantDoc := map[string]any{
		"hits": 1234567.0, "money": map[string]any{"cost": 0.25},
		"responses": map[string]any{"200": 2.0, "500": 1.0},
		"pool":      map[string]any{"size": 3.0, "spend": 1.5e-7, "note": "n"},
	}
	if fmt.Sprint(doc) != fmt.Sprint(wantDoc) {
		t.Errorf("JSON document = %v, want %v", doc, wantDoc)
	}
	for key, want := range map[string]float64{"count": 3, "sumMs": 1005.5, "le1": 1, "le10": 1, "inf": 1, "p50": 5.5, "p99": 10} {
		if plan[key] != want {
			t.Errorf("latencyMs.plan.%s = %v, want %v", key, plan[key], want)
		}
	}
	if !strings.Contains(r.String(), `"hits":1234567,`) {
		t.Errorf("an integer family must not render as a float: %s", r.String())
	}

	if got := r.Value("app_responses_total", "200"); got != 2 {
		t.Errorf(`Value("app_responses_total", "200") = %v, want 2`, got)
	}
	if got := r.Value("app_duration_seconds", "plan"); got != 3 {
		t.Errorf("Value of a histogram = %v, want its count 3", got)
	}
	if got := r.Value("app_responses_total", "404") + r.Value("no_such_family", ""); got != 0 {
		t.Errorf("absent series read %v, want 0", got)
	}
}

// TestRegistryDeclarationPanics: a second declaration of a family name
// or a JSON path, and a name the exposition format does not allow, are
// bugs caught when the table is built.
func TestRegistryDeclarationPanics(t *testing.T) {
	cases := map[string]func(r *Registry){
		"duplicate family":     func(r *Registry) { r.Counter("a_total", "", ""); r.CounterVec("a_total", "l", "", "") },
		"duplicate JSON path":  func(r *Registry) { r.Counter("a_total", "a.b", ""); r.Counter("b_total", "a.b", "") },
		"group path taken":     func(r *Registry) { r.Counter("a_total", "pool", ""); testGroup(r, "pool") },
		"group family name":    func(r *Registry) { r.Counter("app_pool_size", "", ""); testGroup(r, "pool") },
		"upper case":           func(r *Registry) { r.Counter("Requests_total", "", "") },
		"leading digit":        func(r *Registry) { r.Counter("2xx_total", "", "") },
		"hyphen":               func(r *Registry) { r.CounterVec("http-requests", "code", "", "") },
		"empty":                func(r *Registry) { r.Func(Desc{Type: "gauge"}, func() float64 { return 0 }) },
		"unknown type":         func(r *Registry) { r.Func(Desc{Name: "a", Type: "summary"}, func() float64 { return 0 }) },
		"histogram, duplicate": func(r *Registry) { r.HistogramVec("h", "l", "x", "", nil); r.HistogramVec("h2", "l", "x", "", nil) },
	}
	for name, declare := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("declaration did not panic")
				}
			}()
			declare(NewRegistry())
		})
	}
	// The legal alphabet, colons and underscores included, does not.
	NewRegistry().Counter("_ns:sub_system:x9_total", "", "")
}

func testGroup(r *Registry, path string) {
	g := NewGroup(r, path, func() poolSnap { return poolSnap{} })
	g.Value(Desc{Name: "app_pool_size", Type: "gauge"}, func(p poolSnap) float64 { return 0 })
}

// TestRegistryHammer: eight goroutines move every kind of handle while
// both renderers scrape; run under -race. Every scrape is well formed
// and the totals are exact at the end.
func TestRegistryHammer(t *testing.T) {
	r, hits, cost, byCode, lat := testRegistry()
	const workers, rounds = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			code := fmt.Sprint(200 + g%3)
			for i := 0; i < rounds; i++ {
				hits.Inc()
				cost.Add(0.5)
				byCode.With(code).Inc()
				lat.With(code).Observe(time.Duration(i) * time.Microsecond)
			}
		}(g)
	}
	stop := make(chan struct{})
	scraped := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				scraped <- nil
				return
			default:
			}
			var buf bytes.Buffer
			r.WritePrometheus(&buf)
			var doc map[string]any
			if err := json.Unmarshal([]byte(r.String()), &doc); err != nil {
				scraped <- err
				return
			}
			r.Value("app_responses_total", "200")
		}
	}()
	wg.Wait()
	close(stop)
	if err := <-scraped; err != nil {
		t.Fatalf("scrape during the hammer: %v", err)
	}
	total := float64(workers * rounds)
	if got := r.Value("app_hits_total", ""); got != total {
		t.Errorf("hits = %v, want %v", got, total)
	}
	if got := r.Value("app_cost_total", ""); got != total/2 {
		t.Errorf("cost = %v, want %v", got, total/2)
	}
	var responses, observed float64
	for _, code := range []string{"200", "201", "202"} {
		responses += r.Value("app_responses_total", code)
		observed += r.Value("app_duration_seconds", code)
	}
	if responses != total || observed != total {
		t.Errorf("responses = %v, observations = %v, want %v each", responses, observed, total)
	}
}
