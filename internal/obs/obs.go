// Package obs is the repository's stdlib-only tracing core:
// hierarchical spans with typed key/value events, monotonic
// timestamps, context propagation and bounded memory.
//
// A Trace is one operation's span tree (one planner run, one daemon
// request, one simulation batch). Spans are created with Child, carry
// typed attributes (Set) and point-in-time events (Event), and are
// closed with End. Every Span method is nil-safe: with tracing
// disabled the instrumented code holds a nil *Span and each call
// degenerates to a nil check, so the hot paths pay near-zero cost
// (the planner/sim bench baselines guard this).
//
// Exporters: one snapshot feeds them all. Span.Export copies a subtree
// into the wire form (SpanWire, see wire.go) under one hold of the
// trace mutex — the only code that reads span fields to export them.
// Tree (SpanJSON: the daemon's ?trace=1 responses and GET
// /v1/traces/{id}), ChromeTrace/WriteChrome (trace-event JSON for
// chrome://tracing and Perfetto, see chrome.go) and Log (an
// slog.Logger, see slog.go) render the root's copy without the lock,
// so a slow log sink stalls no span. Ring keeps the most recent traces
// in bounded memory (see ring.go).
//
// Timestamps are monotonic durations since the trace epoch
// (time.Since on the epoch time.Time, which carries the monotonic
// reading), so spans are immune to wall-clock steps.
package obs

import (
	"context"
	"math"
	"strconv"
	"sync"
	"time"
)

// maxNodes bounds the total number of spans plus events one Trace
// retains; beyond it new nodes are counted in Dropped instead of
// stored, so a pathological trace (a million-candidate planner run)
// degrades to a truncated tree rather than unbounded memory.
const maxNodes = 1 << 16

// attrKind discriminates the typed Attr payload.
type attrKind uint8

const (
	kindStr attrKind = iota
	kindInt
	kindFloat
	kindBool
)

// Attr is one typed key/value attribute. Values are stored unboxed
// (no interface allocation on the instrumentation path); non-finite
// floats are stored as strings so every attribute survives
// encoding/json.
type Attr struct {
	Key  string
	kind attrKind
	i    int64
	f    float64
	s    string
}

// Str returns a string attribute.
func Str(key, v string) Attr { return Attr{Key: key, kind: kindStr, s: v} }

// Int returns an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, kind: kindInt, i: int64(v)} }

// Int64 returns a 64-bit integer attribute.
func Int64(key string, v int64) Attr { return Attr{Key: key, kind: kindInt, i: v} }

// Float returns a float attribute. NaN and ±Inf are stored as their
// string forms: encoding/json rejects non-finite numbers, and a trace
// must always export.
func Float(key string, v float64) Attr {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return Attr{Key: key, kind: kindStr, s: strconv.FormatFloat(v, 'g', -1, 64)}
	}
	return Attr{Key: key, kind: kindFloat, f: v}
}

// Bool returns a boolean attribute.
func Bool(key string, v bool) Attr {
	a := Attr{Key: key, kind: kindBool}
	if v {
		a.i = 1
	}
	return a
}

// Event is one timestamped point annotation inside a span.
type Event struct {
	Name  string
	At    time.Duration // since the trace epoch
	Attrs []Attr
}

// Span is one node of the trace tree. The zero of *Span (nil) is the
// disabled tracer: every method on a nil receiver is a no-op.
type Span struct {
	trace *Trace
	id    int // per-trace serial, root = 1; serialized in SpanContext
	name  string
	start time.Duration
	end   time.Duration
	ended bool
	// frozen marks a span imported from another process (Graft): its
	// end timestamp is authoritative even while InFlight, so exporters
	// must not substitute the snapshot instant.
	frozen   bool
	attrs    []Attr
	events   []Event
	children []*Span
}

// Trace is one operation's span tree. All mutation goes through the
// trace mutex, so spans of one trace may be used from the goroutine
// handing work to a worker pool and from the worker itself.
type Trace struct {
	mu      sync.Mutex
	id      string
	name    string
	epoch   time.Time
	root    *Span
	nodes   int
	seq     int // last span id handed out
	dropped int
}

// New starts a trace whose root span carries the given name. The root
// span is already started; End it (or EndAll) before exporting for
// meaningful durations, though exporters tolerate open spans.
func New(name string) *Trace {
	t := &Trace{name: name, epoch: time.Now()}
	t.root = &Span{trace: t, id: 1, name: name}
	t.nodes = 1
	t.seq = 1
	return t
}

// SetID tags the trace with an external identifier (the daemon's
// request ID); Ring indexes by it.
func (t *Trace) SetID(id string) {
	t.mu.Lock()
	t.id = id
	t.mu.Unlock()
}

// ID returns the identifier set with SetID.
func (t *Trace) ID() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.id
}

// Name returns the root span's name.
func (t *Trace) Name() string { return t.name }

// Root returns the root span.
func (t *Trace) Root() *Span { return t.root }

// now returns the monotonic offset since the epoch.
func (t *Trace) now() time.Duration { return time.Since(t.epoch) }

// Child starts a sub-span. On a nil receiver it returns nil, keeping
// whole call chains free when tracing is disabled.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.nodes >= maxNodes {
		t.dropped++
		droppedTotal.Add(1)
		return nil
	}
	t.seq++
	c := &Span{trace: t, id: t.seq, name: name, start: t.now()}
	s.children = append(s.children, c)
	t.nodes++
	return c
}

// Set attaches attributes to the span.
func (s *Span) Set(attrs ...Attr) {
	if s == nil {
		return
	}
	s.trace.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.trace.mu.Unlock()
}

// Event records a timestamped point annotation.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	t := s.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.nodes >= maxNodes {
		t.dropped++
		droppedTotal.Add(1)
		return
	}
	s.events = append(s.events, Event{Name: name, At: t.now(), Attrs: attrs})
	t.nodes++
}

// Enabled reports whether the span records anything; instrumentation
// whose mere argument preparation is expensive should guard on it.
func (s *Span) Enabled() bool { return s != nil }

// End closes the span at the current instant. Ending twice keeps the
// first end time.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.trace
	t.mu.Lock()
	if !s.ended {
		s.ended = true
		s.end = t.now()
	}
	t.mu.Unlock()
}

// EndAll closes the root (and implicitly timestamps the trace as
// finished); children left open keep reporting in-progress durations.
func (t *Trace) EndAll() { t.root.End() }

// SpanJSON is the wire form of one span, used by the daemon's inline
// trace responses and GET /v1/traces/{id}.
type SpanJSON struct {
	Name string `json:"name"`
	// StartUs and DurUs are microseconds since the trace start. An
	// unfinished span reports the duration up to the snapshot instant.
	StartUs  float64        `json:"startUs"`
	DurUs    float64        `json:"durUs"`
	InFlight bool           `json:"inFlight,omitempty"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Events   []EventJSON    `json:"events,omitempty"`
	Children []*SpanJSON    `json:"children,omitempty"`
}

// EventJSON is the wire form of one event.
type EventJSON struct {
	Name  string         `json:"name"`
	AtUs  float64        `json:"atUs"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// TraceJSON is the wire form of one whole trace.
type TraceJSON struct {
	ID      string    `json:"id,omitempty"`
	Name    string    `json:"name"`
	Dropped int       `json:"dropped,omitempty"`
	Root    *SpanJSON `json:"root"`
}

// Tree snapshots the span tree. It is safe to call while spans are
// still being added; the snapshot is a deep copy.
func (t *Trace) Tree() *TraceJSON {
	root, id, dropped := t.root.snapshot()
	return &TraceJSON{ID: id, Name: t.name, Dropped: dropped, Root: spanJSON(root)}
}

// spanJSON converts one snapshot span and its subtree to the JSON form.
func spanJSON(w *SpanWire) *SpanJSON {
	out := &SpanJSON{
		Name:     w.Name,
		StartUs:  micros(w.StartNs),
		DurUs:    micros(w.EndNs - w.StartNs),
		InFlight: w.InFlight,
		Attrs:    attrMap(w.Attrs),
	}
	for _, e := range w.Events {
		out.Events = append(out.Events, EventJSON{Name: e.Name, AtUs: micros(e.AtNs), Attrs: attrMap(e.Attrs)})
	}
	for _, c := range w.Children {
		out.Children = append(out.Children, spanJSON(c))
	}
	return out
}

// micros converts snapshot nanoseconds to the exporters' microseconds.
func micros(ns int64) float64 { return float64(ns) / float64(time.Microsecond) }

// attrMap renders attributes as a JSON object; nil for none.
func attrMap(attrs []WireAttr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.value()
	}
	return m
}

// spanKey carries the active span through a context.
type spanKey struct{}

// WithSpan returns a context carrying the span; instrumented code
// retrieves it with SpanFromContext.
func WithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the context's span, or nil — the disabled
// tracer — when none was attached.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}
