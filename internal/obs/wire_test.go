package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestSpanContextRoundTrip(t *testing.T) {
	cases := []SpanContext{
		{TraceID: "job-abc123", SpanID: 1, Epoch: 0},
		{TraceID: "req-9", SpanID: 42, Epoch: 3},
		{TraceID: "a;b", SpanID: 7, Epoch: 1}, // ';' in the id cannot survive — see below
	}
	for _, c := range cases[:2] {
		got, ok := ParseSpanContext(c.String())
		if !ok || got != c {
			t.Errorf("round trip %v: got %v ok=%v", c, got, ok)
		}
	}
	// A trace id containing the separator parses as malformed rather
	// than silently mis-splitting.
	if _, ok := ParseSpanContext(cases[2].String()); ok {
		t.Errorf("context with ';' in the trace id must not parse")
	}

	malformed := []string{
		"", "job-abc", "job-abc;1", "job-abc;1;2;3",
		";1;2",        // empty trace id
		"job-abc;x;2", // non-integer span id
		"job-abc;1;y", // non-integer epoch
		"job-abc;0;2", // span id must be positive
	}
	for _, s := range malformed {
		if c, ok := ParseSpanContext(s); ok {
			t.Errorf("ParseSpanContext(%q) = %v, want reject", s, c)
		}
	}
}

func TestInjectExtract(t *testing.T) {
	h := http.Header{}
	Inject(h, SpanContext{}) // invalid: no header
	if v := h.Get(TraceHeader); v != "" {
		t.Fatalf("zero context injected header %q", v)
	}
	if _, ok := Extract(h); ok {
		t.Fatalf("extract from empty headers succeeded")
	}
	want := SpanContext{TraceID: "job-abc", SpanID: 3, Epoch: 2}
	Inject(h, want)
	got, ok := Extract(h)
	if !ok || got != want {
		t.Fatalf("extract: got %v ok=%v, want %v", got, ok, want)
	}

	// A live span's context carries its trace id and span id.
	tr := New("req")
	tr.SetID("trace-1")
	c := tr.Root().Child("shard")
	sc := c.SpanContext()
	if sc.TraceID != "trace-1" || sc.SpanID != 2 {
		t.Fatalf("span context = %v, want trace-1;2", sc)
	}
	var nilSpan *Span
	if nilSpan.SpanContext().Valid() {
		t.Fatalf("nil span must yield an invalid context")
	}
}

// randWire builds a random but canonical wire subtree: exactly one
// value field per attr kind, finite floats, nil (not empty) slices —
// the shape Export itself produces.
func randWire(rng *rand.Rand, depth int) *SpanWire {
	w := &SpanWire{
		Name:    randName(rng),
		StartNs: rng.Int63n(1e9),
	}
	w.EndNs = w.StartNs + rng.Int63n(1e9)
	w.InFlight = rng.Intn(4) == 0
	if n := rng.Intn(4); n > 0 {
		w.Attrs = randWireAttrs(rng, n)
	}
	if n := rng.Intn(3); n > 0 {
		for i := 0; i < n; i++ {
			ev := EventWire{Name: randName(rng), AtNs: w.StartNs + rng.Int63n(1e6)}
			if m := rng.Intn(3); m > 0 {
				ev.Attrs = randWireAttrs(rng, m)
			}
			w.Events = append(w.Events, ev)
		}
	}
	if depth > 0 {
		for i, n := 0, rng.Intn(3); i < n; i++ {
			w.Children = append(w.Children, randWire(rng, depth-1))
		}
	}
	return w
}

func randName(rng *rand.Rand) string {
	const alpha = "abcdefghij-_."
	b := make([]byte, 1+rng.Intn(8))
	for i := range b {
		b[i] = alpha[rng.Intn(len(alpha))]
	}
	return string(b)
}

func randWireAttrs(rng *rand.Rand, n int) []WireAttr {
	out := make([]WireAttr, n)
	for i := range out {
		wa := WireAttr{Key: randName(rng)}
		switch rng.Intn(4) {
		case 0:
			wa.Kind = "s"
			wa.Str = randName(rng)
		case 1:
			wa.Kind = "i"
			wa.Int = rng.Int63n(1e6) - 5e5
		case 2:
			wa.Kind = "f"
			wa.Float = rng.NormFloat64()
		case 3:
			wa.Kind = "b"
			wa.Bool = rng.Intn(2) == 0
		}
		out[i] = wa
	}
	return out
}

// TestWireRoundTripByteStable is the property test behind the stitcher:
// a wire subtree grafted at offset zero re-exports byte-identically,
// whatever its shape — in-flight spans included (the graft freezes
// their end timestamps).
func TestWireRoundTripByteStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 150; i++ {
		w := randWire(rng, 3)
		before, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("case %d: marshal: %v", i, err)
		}
		tr := New("stitch")
		n := tr.Root().Graft(w, 0)
		if want := w.Nodes(); n != want {
			t.Fatalf("case %d: grafted %d nodes, want %d", i, n, want)
		}
		grafted := tr.root.children[0]
		after, err := json.Marshal(grafted.Export())
		if err != nil {
			t.Fatalf("case %d: re-marshal: %v", i, err)
		}
		if !bytes.Equal(before, after) {
			t.Fatalf("case %d: round trip not byte-stable\nbefore: %s\nafter:  %s", i, before, after)
		}
	}
}

// TestGraftOffsetShifts checks Graft moves every timestamp by the
// offset, and that GraftRemote picks the offset centering the remote
// interval inside the dispatch envelope (midpoint alignment).
func TestGraftOffsetShifts(t *testing.T) {
	w := &SpanWire{
		Name: "compute", StartNs: 1000, EndNs: 5000,
		Events: []EventWire{{Name: "tick", AtNs: 2000}},
	}
	tr := New("job")
	tr.Root().Graft(w, 100*time.Nanosecond)
	got := tr.root.children[0]
	if got.start != 1100 || got.end != 5100 || got.events[0].At != 2100 {
		t.Fatalf("shifted to start=%d end=%d at=%d, want 1100/5100/2100",
			got.start, got.end, got.events[0].At)
	}

	tr2 := New("job")
	d := tr2.Root().Child("shard")
	d.End()
	d.Graft(nil, 0) // nil wire: no-op
	n := d.GraftRemote(w, "http://w1")
	if n != 2 {
		t.Fatalf("grafted %d nodes, want 2", n)
	}
	c := d.children[0]
	// Midpoint alignment: the grafted interval's midpoint must land on
	// the envelope's midpoint (within integer-division rounding).
	envMid := d.start + d.end
	gotMid := c.start + c.end
	if diff := envMid - gotMid; diff < -1 || diff > 1 {
		t.Fatalf("midpoints differ: envelope %d vs grafted %d", envMid, gotMid)
	}
	if c.end-c.start != 4000 {
		t.Fatalf("grafted duration %d, want 4000", c.end-c.start)
	}
	if v, ok := findAttr(c.attrs, ProcessAttr); !ok || v.s != "http://w1" {
		t.Fatalf("grafted root attrs %v lack %s", c.attrs, ProcessAttr)
	}
	if _, ok := findAttr(d.attrs, "clockOffsetUs"); !ok {
		t.Fatalf("dispatch span attrs %v lack clockOffsetUs", d.attrs)
	}
}

func findAttr(attrs []Attr, key string) (Attr, bool) {
	for _, a := range attrs {
		if a.Key == key {
			return a, true
		}
	}
	return Attr{}, false
}

// TestGraftNodeCap checks the cap accounting: a graft into a full trace
// stores nothing, counts every would-be node as dropped, and the drop
// stays visible on the tree, the export, the log, and the process
// counter.
func TestGraftNodeCap(t *testing.T) {
	tr := New("full")
	root := tr.Root()
	for tr.nodes < maxNodes {
		root.Child("filler")
	}
	before := DroppedTotal()
	w := randWire(rand.New(rand.NewSource(1)), 2)
	if n := root.Graft(w, 0); n != 0 {
		t.Fatalf("graft into a full trace stored %d nodes", n)
	}
	if tr.dropped != w.Nodes() {
		t.Fatalf("trace dropped %d, want %d", tr.dropped, w.Nodes())
	}
	if got := DroppedTotal() - before; got != int64(w.Nodes()) {
		t.Fatalf("DroppedTotal moved by %d, want %d", got, w.Nodes())
	}
	if got := tr.Tree().Root.Attrs[DroppedAttr]; got != int64(w.Nodes()) {
		t.Fatalf("tree root %s = %v, want %d", DroppedAttr, got, w.Nodes())
	}
	exp := root.Export()
	last := exp.Attrs[len(exp.Attrs)-1]
	if last.Key != DroppedAttr || last.Int != int64(w.Nodes()) {
		t.Fatalf("export root lacks %s=%d: %+v", DroppedAttr, w.Nodes(), exp.Attrs)
	}
	var logs bytes.Buffer
	tr.Log(slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug})))
	first, _, _ := strings.Cut(logs.String(), "\n")
	if want := fmt.Sprintf(" %s=%d", DroppedAttr, w.Nodes()); !strings.HasSuffix(first, want) {
		t.Fatalf("root log record lacks%s: %s", want, first)
	}
}
