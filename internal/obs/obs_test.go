package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeShape(t *testing.T) {
	tr := New("root")
	root := tr.Root()
	root.Set(Str("requestId", "abc"), Int("n", 30))

	plan := root.Child("plan")
	plan.Event("place", Int("task", 3), Float("eft", 12.5), Bool("admitted", true))
	plan.Event("place", Int("task", 4), Float("eft", 13.5), Bool("admitted", false))
	plan.End()
	simSpan := root.Child("simulate")
	simSpan.End()
	tr.EndAll()

	tree := tr.Tree()
	if tree.Root.Name != "root" {
		t.Fatalf("root name = %q", tree.Root.Name)
	}
	if got := tree.Root.Attrs["requestId"]; got != "abc" {
		t.Errorf("requestId attr = %v", got)
	}
	if got := tree.Root.Attrs["n"]; got != int64(30) {
		t.Errorf("n attr = %v (%T)", got, got)
	}
	if len(tree.Root.Children) != 2 {
		t.Fatalf("children = %d, want 2", len(tree.Root.Children))
	}
	p := tree.Root.Children[0]
	if p.Name != "plan" || len(p.Events) != 2 {
		t.Fatalf("plan span: name=%q events=%d", p.Name, len(p.Events))
	}
	if p.Events[0].Attrs["task"] != int64(3) || p.Events[0].Attrs["admitted"] != true {
		t.Errorf("event attrs = %v", p.Events[0].Attrs)
	}
	if p.InFlight || tree.Root.InFlight {
		t.Error("ended spans reported in-flight")
	}
	if p.DurUs < 0 {
		t.Errorf("negative duration %v", p.DurUs)
	}
}

func TestTreeIsJSONSerializable(t *testing.T) {
	tr := New("op")
	tr.Root().Event("weird",
		Float("inf", math.Inf(1)),
		Float("ninf", math.Inf(-1)),
		Float("nan", math.NaN()),
		Float("ok", 1.5))
	tr.EndAll()
	b, err := json.Marshal(tr.Tree())
	if err != nil {
		t.Fatalf("non-finite attrs must serialize: %v", err)
	}
	var round TraceJSON
	if err := json.Unmarshal(b, &round); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	at := round.Root.Events[0].Attrs
	if at["inf"] != "+Inf" || at["nan"] != "NaN" {
		t.Errorf("non-finite floats = %v, want string forms", at)
	}
	if at["ok"] != 1.5 {
		t.Errorf("finite float = %v", at["ok"])
	}
}

func TestNilSpanIsSafeAndFree(t *testing.T) {
	var s *Span
	if s.Enabled() {
		t.Fatal("nil span claims enabled")
	}
	// Every method must be a no-op, including whole chains.
	c := s.Child("x")
	c.Set(Int("a", 1))
	c.Event("e", Str("k", "v"))
	c.Child("y").Child("z").End()
	c.End()
	if c != nil {
		t.Fatal("nil span spawned a real child")
	}
}

func TestNodeCapBoundsMemory(t *testing.T) {
	tr := New("big")
	root := tr.Root()
	for i := 0; i < maxNodes+500; i++ {
		root.Event("e", Int("i", i))
	}
	if d := tr.Tree().Dropped; d < 500 {
		t.Fatalf("dropped = %d, want ≥ 500", d)
	}
	// A child created past the cap is the nil tracer.
	if c := root.Child("post-cap"); c != nil {
		t.Fatal("child created past the node cap")
	}
	tree := tr.Tree()
	if len(tree.Root.Events) >= maxNodes {
		t.Fatalf("tree retained %d events, cap is %d", len(tree.Root.Events), maxNodes)
	}
	if tree.Dropped == 0 {
		t.Error("snapshot does not report drops")
	}
}

func TestContextPropagation(t *testing.T) {
	if s := SpanFromContext(context.Background()); s != nil {
		t.Fatal("background context carries a span")
	}
	tr := New("op")
	ctx := WithSpan(context.Background(), tr.Root())
	if s := SpanFromContext(ctx); s != tr.Root() {
		t.Fatal("span did not round-trip through the context")
	}
}

func TestChromeExportShape(t *testing.T) {
	tr := New("req-1")
	root := tr.Root()
	p := root.Child("plan")
	p.Event("budget-guard", Int("task", 0), Bool("admitted", true))
	p.End()
	tr.EndAll()

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	// The golden shape: a JSON object with a traceEvents array whose
	// entries carry the phase/timestamp fields the viewers require.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("round-trip through encoding/json: %v", err)
	}
	if doc.Unit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.Unit)
	}
	var phases []string
	for _, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		phases = append(phases, ph)
		if _, ok := ev["name"].(string); !ok {
			t.Errorf("event without name: %v", ev)
		}
		if ph == "X" || ph == "i" {
			if _, ok := ev["ts"].(float64); !ok {
				t.Errorf("event without numeric ts: %v", ev)
			}
		}
	}
	joined := strings.Join(phases, "")
	if !strings.Contains(joined, "M") || !strings.Contains(joined, "X") || !strings.Contains(joined, "i") {
		t.Errorf("phases %v missing M/X/i", phases)
	}
}

func TestSlogBridge(t *testing.T) {
	tr := New("op")
	tr.SetID("req-9")
	c := tr.Root().Child("plan")
	c.Event("place", Int("task", 7))
	c.End()
	tr.EndAll()

	var buf bytes.Buffer
	l := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	tr.Log(l)
	out := buf.String()
	for _, want := range []string{"span=op/plan", "event=place", "task=7", "traceId=req-9"} {
		if !strings.Contains(out, want) {
			t.Errorf("slog output missing %q:\n%s", want, out)
		}
	}

	// At a level above Debug the bridge must do nothing.
	var buf2 bytes.Buffer
	tr.Log(slog.New(slog.NewTextHandler(&buf2, nil)))
	if buf2.Len() != 0 {
		t.Errorf("bridge emitted at Info level: %s", buf2.String())
	}
}

// lockingHandler is a slog handler that records a span attribute on
// the trace it is logging — it deadlocks if Log holds the trace mutex
// while it calls the handler.
type lockingHandler struct{ span *Span }

func (h lockingHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h lockingHandler) Handle(context.Context, slog.Record) error {
	h.span.Set(Bool("logged", true))
	return nil
}
func (h lockingHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h lockingHandler) WithGroup(string) slog.Handler      { return h }

// TestLogReleasesTraceLock checks that Log calls the handler without
// the trace mutex: a slow sink must not stall span operations, and a
// handler that touches the trace must not deadlock.
func TestLogReleasesTraceLock(t *testing.T) {
	tr := New("op")
	tr.Root().Child("plan").End()
	tr.EndAll()
	done := make(chan struct{})
	go func() {
		tr.Log(slog.New(lockingHandler{tr.Root()}))
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Log still holds the trace mutex while calling the handler")
	}
	if got := tr.Tree().Root.Attrs["logged"]; got != true {
		t.Fatalf("handler's Set did not land: logged = %v", got)
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := New("par")
	root := tr.Root()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := root.Child(fmt.Sprintf("worker-%d", g))
			for i := 0; i < 100; i++ {
				s.Event("tick", Int("i", i))
			}
			s.End()
		}(g)
	}
	// Snapshot concurrently with the writers.
	for i := 0; i < 10; i++ {
		_ = tr.Tree()
	}
	wg.Wait()
	tr.EndAll()
	tree := tr.Tree()
	if len(tree.Root.Children) != 8 {
		t.Fatalf("children = %d, want 8", len(tree.Root.Children))
	}
}

func TestRing(t *testing.T) {
	r := NewRing(3)
	mk := func(id string) *Trace {
		tr := New("op")
		tr.SetID(id)
		return tr
	}
	for _, id := range []string{"a", "b", "c", "d"} {
		r.Add(mk(id))
	}
	if _, ok := r.Get("a"); ok {
		t.Error("oldest trace survived eviction")
	}
	for _, id := range []string{"b", "c", "d"} {
		if _, ok := r.Get(id); !ok {
			t.Errorf("trace %q not retrievable", id)
		}
	}
	ids := r.IDs()
	if len(ids) != 3 || ids[0] != "d" || ids[2] != "b" {
		t.Errorf("IDs = %v, want [d c b]", ids)
	}

	// Re-using an ID must keep Get pointing at the newest trace even
	// after the older homonym is evicted.
	r2 := NewRing(2)
	first, second := mk("x"), mk("x")
	r2.Add(first)
	r2.Add(second)
	r2.Add(mk("y")) // evicts first
	got, ok := r2.Get("x")
	if !ok || got != second {
		t.Error("ID reuse broke retrieval")
	}

	// A nil ring (capacity < 1) is inert.
	var nr *Ring = NewRing(0)
	nr.Add(mk("z"))
	if len(nr.IDs()) != 0 {
		t.Error("nil ring stored a trace")
	}
	if _, ok := nr.Get("z"); ok {
		t.Error("nil ring retrieved a trace")
	}
}

func TestMonotonicTimestamps(t *testing.T) {
	tr := New("op")
	s := tr.Root().Child("a")
	time.Sleep(time.Millisecond)
	s.End()
	tr.EndAll()
	tree := tr.Tree()
	child := tree.Root.Children[0]
	if child.DurUs < 900 { // slept ≥ 1ms
		t.Errorf("child duration %v µs, want ≥ ~1000", child.DurUs)
	}
	if tree.Root.DurUs < child.StartUs+child.DurUs-1e-6 {
		t.Errorf("root (%v µs) shorter than child end (%v µs)",
			tree.Root.DurUs, child.StartUs+child.DurUs)
	}
}

// BenchmarkNilSpan pins the disabled-tracer cost: a nil *Span call
// chain must stay in the few-ns range so instrumented hot paths are
// unaffected when tracing is off.
func BenchmarkNilSpan(b *testing.B) {
	var s *Span
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s.Enabled() {
			s.Event("place", Int("task", i))
		}
	}
}
