package obs

import (
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Cross-process tracing: the pieces that let a span tree span machine
// boundaries.
//
//   - SpanContext is the serializable identity of one span (trace id,
//     span id, coordinator epoch); Inject/Extract move it through an
//     HTTP header on shard dispatches and heartbeats.
//   - SpanWire is the wire form of a completed span subtree: ordered
//     slices, integer-nanosecond timestamps and typed attribute kinds,
//     so that export → import → re-export is byte-stable (the map-based
//     SpanJSON form cannot promise that).
//   - GraftRemote imports a wire subtree under a local span,
//     reconciling the remote monotonic clock against the local one
//     using the dispatch/response envelope.
//
// Timestamps on the wire are nanoseconds since the *origin process's*
// trace epoch — a monotonic-clock anchor, meaningless across machines
// until the stitcher aligns it.

// TraceHeader carries a SpanContext on coordinator→worker requests.
const TraceHeader = "X-Budgetwf-Trace"

// ProcessAttr is the span attribute naming the process a grafted
// subtree came from; the Chrome exporter keys per-worker swimlanes on
// it.
const ProcessAttr = "obs.process"

// DroppedAttr is the root-span attribute counting spans/events the
// node cap silently discarded (only present when non-zero).
const DroppedAttr = "obs.droppedSpans"

// droppedTotal counts node-cap drops across every trace in the
// process; the daemon declares a counter family over it.
var droppedTotal atomic.Int64

// DroppedTotal reports the process-wide number of spans/events
// discarded by the per-trace node cap.
func DroppedTotal() int64 { return droppedTotal.Load() }

// SpanContext is the serializable identity of one span: enough for a
// remote process to tag its own trace as a continuation. Epoch is the
// coordinator incarnation (journal failover counter), not a clock.
type SpanContext struct {
	TraceID string
	SpanID  int
	Epoch   int
}

// Valid reports whether the context identifies a span.
func (c SpanContext) Valid() bool { return c.TraceID != "" && c.SpanID > 0 }

// String renders the header form: "traceID;spanID;epoch".
func (c SpanContext) String() string {
	return c.TraceID + ";" + strconv.Itoa(c.SpanID) + ";" + strconv.Itoa(c.Epoch)
}

// ParseSpanContext parses the header form. It is strict: three
// ';'-separated fields, non-empty trace id, integer span id and epoch.
func ParseSpanContext(s string) (SpanContext, bool) {
	parts := strings.Split(s, ";")
	if len(parts) != 3 || parts[0] == "" {
		return SpanContext{}, false
	}
	spanID, err := strconv.Atoi(parts[1])
	if err != nil {
		return SpanContext{}, false
	}
	epoch, err := strconv.Atoi(parts[2])
	if err != nil {
		return SpanContext{}, false
	}
	c := SpanContext{TraceID: parts[0], SpanID: spanID, Epoch: epoch}
	if !c.Valid() {
		return SpanContext{}, false
	}
	return c, true
}

// SpanContext returns the span's serializable identity (zero on a nil
// span — Inject then sends nothing).
func (s *Span) SpanContext() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	t := s.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	return SpanContext{TraceID: t.id, SpanID: s.id}
}

// Inject writes the context into the request headers; a zero context
// writes nothing, so the disabled-tracing path adds no header.
func Inject(h http.Header, c SpanContext) {
	if c.Valid() {
		h.Set(TraceHeader, c.String())
	}
}

// Extract reads a SpanContext from the request headers.
func Extract(h http.Header) (SpanContext, bool) {
	v := h.Get(TraceHeader)
	if v == "" {
		return SpanContext{}, false
	}
	return ParseSpanContext(v)
}

// WireAttr is one typed attribute on the wire. Kind is "s", "i", "f"
// or "b"; exactly one value field is meaningful. The explicit kind tag
// (instead of a bare any) keeps import → re-export byte-stable.
type WireAttr struct {
	Key   string  `json:"k"`
	Kind  string  `json:"t"`
	Str   string  `json:"s,omitempty"`
	Int   int64   `json:"i,omitempty"`
	Float float64 `json:"f,omitempty"`
	Bool  bool    `json:"b,omitempty"`
}

// EventWire is one event on the wire.
type EventWire struct {
	Name  string     `json:"name"`
	AtNs  int64      `json:"atNs"`
	Attrs []WireAttr `json:"attrs,omitempty"`
}

// SpanWire is the wire form of one span subtree. Timestamps are
// nanoseconds since the origin process's trace epoch.
type SpanWire struct {
	Name     string      `json:"name"`
	StartNs  int64       `json:"startNs"`
	EndNs    int64       `json:"endNs"`
	InFlight bool        `json:"inFlight,omitempty"`
	Attrs    []WireAttr  `json:"attrs,omitempty"`
	Events   []EventWire `json:"events,omitempty"`
	Children []*SpanWire `json:"children,omitempty"`
}

// Nodes counts the spans plus events of the subtree — the amount of
// node-cap budget a graft would consume.
func (w *SpanWire) Nodes() int {
	if w == nil {
		return 0
	}
	n := 1 + len(w.Events)
	for _, c := range w.Children {
		n += c.Nodes()
	}
	return n
}

// wire converts one in-memory attribute to the wire form.
func (a Attr) wire() WireAttr {
	switch a.kind {
	case kindInt:
		return WireAttr{Key: a.Key, Kind: "i", Int: a.i}
	case kindFloat:
		return WireAttr{Key: a.Key, Kind: "f", Float: a.f}
	case kindBool:
		return WireAttr{Key: a.Key, Kind: "b", Bool: a.i != 0}
	default:
		return WireAttr{Key: a.Key, Kind: "s", Str: a.s}
	}
}

// value returns the payload as an interface value: int64, float64,
// bool or string.
func (a WireAttr) value() any {
	switch a.Kind {
	case "i":
		return a.Int
	case "f":
		return a.Float
	case "b":
		return a.Bool
	default:
		return a.Str
	}
}

// wireAttrs converts in-memory attributes to the wire form.
func wireAttrs(attrs []Attr) []WireAttr {
	if len(attrs) == 0 {
		return nil
	}
	out := make([]WireAttr, len(attrs))
	for i, a := range attrs {
		out[i] = a.wire()
	}
	return out
}

// attrsFromWire converts wire attributes back to the in-memory form.
// An unknown kind degrades to a string rather than dropping the key.
func attrsFromWire(ws []WireAttr) []Attr {
	if len(ws) == 0 {
		return nil
	}
	out := make([]Attr, len(ws))
	for i, wa := range ws {
		switch wa.Kind {
		case "i":
			out[i] = Int64(wa.Key, wa.Int)
		case "f":
			out[i] = Float(wa.Key, wa.Float)
		case "b":
			out[i] = Bool(wa.Key, wa.Bool)
		default:
			out[i] = Str(wa.Key, wa.Str)
		}
	}
	return out
}

// Export snapshots the span's subtree in the wire form. In-flight
// spans are marked and their end pinned at the snapshot instant, so an
// exported subtree is self-contained. When the owning trace has
// dropped nodes at the cap the exported root carries DroppedAttr —
// truncation must stay visible after stitching. Nil-safe: a nil span
// exports nil.
func (s *Span) Export() *SpanWire {
	if s == nil {
		return nil
	}
	w, _, _ := s.snapshot()
	return w
}

// snapshot is the one reader of span fields for export: under a single
// hold of the trace mutex it copies the subtree into the wire form,
// tags its root with DroppedAttr when the node cap dropped nodes, and
// reads the trace id and drop count alongside. Tree, ChromeTrace and
// Log render the root's snapshot without the lock.
func (s *Span) snapshot() (root *SpanWire, id string, dropped int) {
	t := s.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	root = s.exportLocked(t.now())
	if t.dropped > 0 {
		root.Attrs = append(root.Attrs, WireAttr{Key: DroppedAttr, Kind: "i", Int: int64(t.dropped)})
	}
	return root, t.id, t.dropped
}

// exportLocked copies one span and its subtree for snapshot (caller
// holds the trace mutex).
func (s *Span) exportLocked(now time.Duration) *SpanWire {
	end := s.end
	inFlight := !s.ended
	if inFlight && !s.frozen {
		end = now
	}
	w := &SpanWire{
		Name:     s.name,
		StartNs:  int64(s.start),
		EndNs:    int64(end),
		InFlight: inFlight,
		Attrs:    wireAttrs(s.attrs),
	}
	for _, e := range s.events {
		w.Events = append(w.Events, EventWire{
			Name:  e.Name,
			AtNs:  int64(e.At),
			Attrs: wireAttrs(e.Attrs),
		})
	}
	for _, c := range s.children {
		w.Children = append(w.Children, c.exportLocked(now))
	}
	return w
}

// graftLocked imports a wire subtree as a new child of parent,
// shifting every timestamp by offset onto this trace's timeline; the
// caller holds the trace mutex. Imported spans are frozen: their
// (shifted) end timestamps are final even when marked in-flight, so a
// grafted subtree re-exports byte-identically at offset zero. The node
// cap applies — spans/events beyond it are counted as dropped, never
// stored. Returns the number of nodes actually grafted.
func (t *Trace) graftLocked(parent *Span, w *SpanWire, offset time.Duration) int {
	if t.nodes >= maxNodes {
		d := w.Nodes()
		t.dropped += d
		droppedTotal.Add(int64(d))
		return 0
	}
	t.nodes++
	t.seq++
	c := &Span{
		trace:  t,
		id:     t.seq,
		name:   w.Name,
		start:  offset + time.Duration(w.StartNs),
		end:    offset + time.Duration(w.EndNs),
		ended:  !w.InFlight,
		frozen: true,
		attrs:  attrsFromWire(w.Attrs),
	}
	parent.children = append(parent.children, c)
	n := 1
	for _, e := range w.Events {
		if t.nodes >= maxNodes {
			t.dropped++
			droppedTotal.Add(1)
			continue
		}
		t.nodes++
		n++
		c.events = append(c.events, Event{
			Name:  e.Name,
			At:    offset + time.Duration(e.AtNs),
			Attrs: attrsFromWire(e.Attrs),
		})
	}
	for _, ch := range w.Children {
		n += t.graftLocked(c, ch, offset)
	}
	return n
}

// GraftRemote grafts a worker-exported subtree under the dispatch span
// s, reconciling the remote monotonic clock against the local one: the
// wire root's [start, end] interval (the worker's own monotonic
// anchors) is centered inside s's dispatch/response envelope
// [s.start, now], the midpoint alignment that splits the network round
// trip symmetrically. The grafted root is tagged with ProcessAttr so
// exporters can lane it per worker, and s records the applied offset
// in microseconds. Returns the number of nodes grafted.
func (s *Span) GraftRemote(w *SpanWire, process string) int {
	if s == nil || w == nil {
		return 0
	}
	t := s.trace
	t.mu.Lock()
	defer t.mu.Unlock()
	envStart, envEnd := s.start, t.now()
	if s.ended {
		envEnd = s.end
	}
	offset := ((envStart + envEnd) - time.Duration(w.StartNs+w.EndNs)) / 2
	tagged := *w
	tagged.Attrs = append(append([]WireAttr(nil), w.Attrs...),
		WireAttr{Key: ProcessAttr, Kind: "s", Str: process})
	n := t.graftLocked(s, &tagged, offset)
	s.attrs = append(s.attrs, Float("clockOffsetUs", float64(offset)/float64(time.Microsecond)))
	return n
}
