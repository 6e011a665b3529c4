package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// PrometheusContentType is the content type of WritePrometheus's output.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// Desc declares one metric family, once, for both renderings.
type Desc struct {
	Name, Help string // Prometheus family name and HELP text
	Type       string // "counter", "gauge" or "histogram"
	Label      string // label name of a labelled family, else ""
	// JSON is the dotted path of the family's value in the JSON document
	// (a labelled family is an object keyed by label value there); ""
	// for a family only the exposition carries. A Group's families leave
	// it empty: their JSON form is the group's snapshot.
	JSON string
	// Float marks fractional values: %g in the exposition, a JSON float.
	// Other families are integers, rendered without an exponent.
	Float bool
}

// family is a declared Desc plus the way to read its current series.
type family struct {
	Desc
	// collect emits the series: label "" for an unlabelled family; a
	// histogram emits its counts.
	collect func(emit func(label string, v float64))
	hists   *HistogramVec // set for a histogram family
}

// Registry holds a process's metric declarations and renders them two
// ways from the one table: WritePrometheus (text exposition 0.0.4,
// families in declaration order, series sorted by label value) and
// String (the JSON document; a Registry is an expvar.Var). Declaring
// panics on a malformed or duplicate family name and on a duplicate
// JSON path. Handles are safe for concurrent use; scrapes take turns.
type Registry struct {
	mu       sync.Mutex // one scrape at a time: each Group holds its current snapshot
	families []*family
	groups   []func(doc map[string]any) // take a snapshot; place it in doc when non-nil
	declared map[string]bool            // family names and JSON paths
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{declared: map[string]bool{}} }

var familyName = regexp.MustCompile(`^[a-z_:][a-z0-9_:]*$`)

func (r *Registry) claim(what string) {
	if r.declared[what] {
		panic("obs: " + what + " declared twice")
	}
	r.declared[what] = true
}

func (r *Registry) add(f *family) {
	if !familyName.MatchString(f.Name) || (f.Type != "counter" && f.Type != "gauge" && f.Type != "histogram") {
		panic(fmt.Sprintf("obs: malformed family %q of type %q", f.Name, f.Type))
	}
	r.claim("family " + f.Name)
	if f.JSON != "" {
		r.claim("JSON path " + f.JSON)
	}
	r.families = append(r.families, f)
}

// Counter is a counter handle. The value is a float64 so one type serves
// integer and fractional families; integer counts are exact to 2^53.
type Counter struct{ bits atomic.Uint64 }

func (c *Counter) Inc() { c.Add(1) }

func (c *Counter) Add(v float64) {
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (c *Counter) value() float64 { return math.Float64frombits(c.bits.Load()) }

// Counter declares an unlabelled integer counter.
func (r *Registry) Counter(name, jsonPath, help string) *Counter {
	return r.counter(Desc{Name: name, Help: help, Type: "counter", JSON: jsonPath})
}

// FloatCounter declares an unlabelled counter of fractional values.
func (r *Registry) FloatCounter(name, jsonPath, help string) *Counter {
	return r.counter(Desc{Name: name, Help: help, Type: "counter", JSON: jsonPath, Float: true})
}

func (r *Registry) counter(d Desc) *Counter {
	c := new(Counter)
	r.Func(d, c.value)
	return c
}

// Func declares an unlabelled family read from f at each scrape.
func (r *Registry) Func(d Desc, f func() float64) {
	r.add(&family{Desc: d, collect: func(emit func(string, float64)) { emit("", f()) }})
}

// vec maps label values to handles. A series is exposed once it has
// counted something, so resolving a handle ahead of time (at route
// mount, say) adds no empty series.
type vec[M any] struct {
	mu    sync.Mutex
	m     map[string]*M
	fresh func() *M
}

// With returns the handle for one label value, creating it on first
// use; callers on a hot path resolve it once and keep it.
func (v *vec[M]) With(label string) *M {
	v.mu.Lock()
	defer v.mu.Unlock()
	h := v.m[label]
	if h == nil {
		h = v.fresh()
		v.m[label] = h
	}
	return h
}

// collect emits count(handle) for every handle that has counted.
func (v *vec[M]) collect(count func(*M) float64) func(emit func(string, float64)) {
	return func(emit func(string, float64)) {
		v.mu.Lock()
		defer v.mu.Unlock()
		for label, h := range v.m {
			if n := count(h); n != 0 {
				emit(label, n)
			}
		}
	}
}

// CounterVec is a counter family with one label.
type CounterVec = vec[Counter]

// CounterVec declares a labelled integer counter.
func (r *Registry) CounterVec(name, label, jsonPath, help string) *CounterVec {
	v := &CounterVec{m: map[string]*Counter{}, fresh: func() *Counter { return new(Counter) }}
	r.add(&family{Desc: Desc{Name: name, Help: help, Type: "counter", Label: label, JSON: jsonPath},
		collect: v.collect((*Counter).value)})
	return v
}

// Group is a snapshot taken once per scrape that feeds several
// families, so they are one consistent cut under their owner's lock.
type Group[T any] struct {
	r   *Registry
	cur T
}

// NewGroup declares a snapshot group; snap runs once per scrape. A
// non-empty jsonPath places the snapshot itself, marshalled by
// encoding/json, there in the JSON document: the snapshot type's tags
// declare everything beneath it, JSON-only fields included. (A group
// whose source may be missing — no pool, no journal — is declared only
// when it is there: that is known when the table is built.)
func NewGroup[T any](r *Registry, jsonPath string, snap func() T) *Group[T] {
	g := &Group[T]{r: r}
	if jsonPath != "" {
		r.claim("JSON path " + jsonPath)
	}
	r.groups = append(r.groups, func(doc map[string]any) {
		g.cur = snap()
		if doc != nil && jsonPath != "" {
			put(doc, jsonPath, g.cur)
		}
	})
	return g
}

// Series declares a family whose series f emits from the snapshot.
func (g *Group[T]) Series(d Desc, f func(snap T, emit func(label string, v float64))) {
	g.r.add(&family{Desc: d, collect: func(emit func(string, float64)) { f(g.cur, emit) }})
}

// Value declares an unlabelled family computed from the snapshot.
func (g *Group[T]) Value(d Desc, f func(snap T) float64) {
	g.Series(d, func(snap T, emit func(string, float64)) { emit("", f(snap)) })
}

// snapshot refreshes every group, placing them in doc when non-nil.
func (r *Registry) snapshot(doc map[string]any) {
	for _, take := range r.groups {
		take(doc)
	}
}

// gather reads the family's series: label values sorted, and the value
// of each.
func (f *family) gather() (labels []string, values map[string]float64) {
	values = map[string]float64{}
	f.collect(func(l string, v float64) { labels, values[l] = append(labels, l), v })
	sort.Strings(labels)
	return labels, values
}

// Value returns the current value of one series (label "" for an
// unlabelled family; a histogram's observation count), 0 if there is
// none. It is how tests read a metric.
func (r *Registry) Value(name, label string) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.snapshot(nil)
	for _, f := range r.families {
		if f.Name == name {
			_, values := f.gather()
			return values[label]
		}
	}
	return 0
}

// labelPair renders name="value" — the one place a label value is
// escaped, as the exposition format defines: backslash, double quote
// and line feed, nothing else.
func labelPair(name, value string) string {
	return name + `="` + labelEscaper.Replace(value) + `"`
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// WritePrometheus renders every family in the text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.snapshot(nil)
	for _, f := range r.families {
		labels, values := f.gather()
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.Type)
		for _, l := range labels {
			series, format := f.Name, byte('f')
			if f.Label != "" {
				series += "{" + labelPair(f.Label, l) + "}"
			}
			if f.Float {
				format = 'g'
			}
			if f.hists != nil {
				f.hists.With(l).Snapshot().writePrometheus(w, f.Name, labelPair(f.Label, l))
			} else {
				fmt.Fprintf(w, "%s %s\n", series, strconv.FormatFloat(values[l], format, -1, 64))
			}
		}
	}
}

// String renders the JSON document.
func (r *Registry) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	doc := map[string]any{}
	r.snapshot(doc)
	for _, f := range r.families {
		if f.JSON == "" {
			continue
		}
		labels, values := f.gather()
		object := map[string]any{}
		for _, l := range labels {
			switch {
			case f.hists != nil:
				object[l] = f.hists.With(l).Snapshot().json()
			case f.Float:
				object[l] = values[l]
			default:
				object[l] = int64(values[l])
			}
		}
		if f.Label == "" {
			put(doc, f.JSON, object[""])
		} else {
			put(doc, f.JSON, object)
		}
	}
	b, err := json.Marshal(doc)
	if err != nil { // a snapshot that cannot be marshalled, e.g. a NaN
		return `{"error":` + strconv.Quote(err.Error()) + `}`
	}
	return string(b)
}

// put sets doc[a][b][c] = v for the dotted path "a.b.c".
func put(doc map[string]any, path string, v any) {
	keys := strings.Split(path, ".")
	for _, k := range keys[:len(keys)-1] {
		next, _ := doc[k].(map[string]any)
		if next == nil {
			next = map[string]any{}
			doc[k] = next
		}
		doc = next
	}
	doc[keys[len(keys)-1]] = v
}

// Histogram is a fixed-bucket duration histogram. All fields are
// manipulated atomically. There is deliberately no separate count: it
// is derived from the buckets at snapshot time, so a reader can never
// observe a count that disagrees with the buckets it just read. The
// sum is kept in nanoseconds: sub-microsecond observations must
// advance it, not silently add zero.
type Histogram struct {
	boundsMs []float64 // bucket upper bounds, in milliseconds
	sumNs    atomic.Uint64
	buckets  []atomic.Uint64 // len(boundsMs) + 1: the last catches the tail
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.sumNs.Add(uint64(d))
	ms, i := float64(d)/float64(time.Millisecond), 0
	for i < len(h.boundsMs) && ms > h.boundsMs[i] {
		i++
	}
	h.buckets[i].Add(1)
}

// HistSnapshot is one self-consistent view of a Histogram, shared by
// both renderers. Buckets holds per-bucket (non-cumulative) counts;
// Count is exactly their sum.
type HistSnapshot struct {
	Count    uint64
	SumMs    float64
	Buckets  []uint64
	boundsMs []float64
}

// Snapshot reads the histogram once. Concurrent observes may land
// between bucket loads, but Count always equals the sum of Buckets.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{Buckets: make([]uint64, len(h.buckets)), boundsMs: h.boundsMs}
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	s.SumMs = float64(h.sumNs.Load()) / 1e6
	return s
}

// Quantile estimates the q-quantile (0 < q < 1) in milliseconds by
// linear interpolation within the bucket containing the rank. The
// overflow bucket reports the last finite bound (the histogram cannot
// see past it).
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	cum, lower := 0.0, 0.0
	for i, bound := range s.boundsMs {
		c := float64(s.Buckets[i])
		if c > 0 && cum+c >= rank {
			return lower + (rank-cum)/c*(bound-lower)
		}
		cum += c
		lower = bound
	}
	return lower
}

// writePrometheus renders the cumulative _bucket series, _sum and
// _count, in seconds.
func (s HistSnapshot) writePrometheus(w io.Writer, name, label string) {
	cum := uint64(0)
	for i, boundMs := range s.boundsMs {
		cum += s.Buckets[i]
		le := strconv.FormatFloat(boundMs/1e3, 'f', -1, 64)
		fmt.Fprintf(w, "%s_bucket{%s,%s} %d\n", name, label, labelPair("le", le), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%s,%s} %d\n", name, label, labelPair("le", "+Inf"), s.Count)
	fmt.Fprintf(w, "%s_sum{%s} %g\n%s_count{%s} %d\n", name, label, s.SumMs/1e3, name, label, s.Count)
}

// json renders the histogram's JSON object, in milliseconds, with
// estimated p50/p95/p99.
func (s HistSnapshot) json() map[string]any {
	m := map[string]any{
		"count": s.Count, "sumMs": s.SumMs, "inf": s.Buckets[len(s.boundsMs)],
		"p50": s.Quantile(0.50), "p95": s.Quantile(0.95), "p99": s.Quantile(0.99),
	}
	for i, boundMs := range s.boundsMs {
		m["le"+strconv.FormatFloat(boundMs, 'g', -1, 64)] = s.Buckets[i]
	}
	return m
}

// HistogramVec is a histogram family with one label.
type HistogramVec = vec[Histogram]

// HistogramVec declares a labelled histogram with the given bucket
// upper bounds in milliseconds.
func (r *Registry) HistogramVec(name, label, jsonPath, help string, boundsMs []float64) *HistogramVec {
	v := &HistogramVec{m: map[string]*Histogram{}, fresh: func() *Histogram {
		return &Histogram{boundsMs: boundsMs, buckets: make([]atomic.Uint64, len(boundsMs)+1)}
	}}
	r.add(&family{Desc: Desc{Name: name, Help: help, Type: "histogram", Label: label, JSON: jsonPath}, hists: v,
		collect: v.collect(func(h *Histogram) float64 { return float64(h.Snapshot().Count) })})
	return v
}
