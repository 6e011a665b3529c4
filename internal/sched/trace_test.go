package sched

import (
	"bytes"
	stdcontext "context"
	"encoding/json"
	"reflect"
	"testing"

	"budgetwf/internal/obs"
	"budgetwf/internal/platform"
	"budgetwf/internal/wfgen"
)

// collectEvents flattens a span tree into name → events.
func collectEvents(s *obs.SpanJSON, into map[string][]obs.EventJSON) {
	for _, e := range s.Events {
		into[e.Name] = append(into[e.Name], e)
	}
	for _, c := range s.Children {
		collectEvents(c, into)
	}
}

// findSpan returns the first span with the given name, depth-first.
func findSpan(s *obs.SpanJSON, name string) *obs.SpanJSON {
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if f := findSpan(c, name); f != nil {
			return f
		}
	}
	return nil
}

// TestHeftBudgPlusTraceShape is the acceptance golden-shape test: a
// HEFTBUDG+ plan of Montage n=50 under a trace span must produce a
// span tree with one budget-guard event per task, candidate
// evaluations carrying EFT/cost, the Algorithm 1 decomposition, and a
// refine child span — and the Chrome export must round-trip through
// encoding/json with the fields the viewers require.
func TestHeftBudgPlusTraceShape(t *testing.T) {
	w := wfgen.MustGenerate(wfgen.Montage, 50, 1).WithSigmaRatio(0.5)
	p := platform.Default()
	budget := 2 * cheapBudget(t, w, p)

	tr := obs.New("test")
	ctx := obs.WithSpan(stdcontext.Background(), tr.Root())
	s, err := PlanContext(ctx, NameHeftBudgPlus, w, p, budget)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if err := s.Validate(w, p.NumCategories()); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	tr.EndAll()
	// Round-trip the tree through encoding/json so attribute values take
	// their wire form (numbers as float64) — the same shape daemon
	// clients see.
	raw, err := json.Marshal(tr.Tree())
	if err != nil {
		t.Fatalf("marshal tree: %v", err)
	}
	var tree obs.TraceJSON
	if err := json.Unmarshal(raw, &tree); err != nil {
		t.Fatalf("unmarshal tree: %v", err)
	}

	planSpan := findSpan(tree.Root, "plan:heftbudg+")
	if planSpan == nil {
		t.Fatalf("no plan:heftbudg+ span in tree")
	}
	if planSpan.Attrs["algorithm"] != "heftbudg+" || planSpan.Attrs["tasks"] != float64(50) {
		t.Errorf("plan span attrs = %v", planSpan.Attrs)
	}
	if findSpan(tree.Root, "refine") == nil {
		t.Error("no refine child span")
	}

	events := map[string][]obs.EventJSON{}
	collectEvents(tree.Root, events)

	// One budget-guard verdict per task (the HEFTBUDG base pass).
	guards := events["budget-guard"]
	if len(guards) != w.NumTasks() {
		t.Fatalf("budget-guard events = %d, want %d", len(guards), w.NumTasks())
	}
	seen := map[float64]bool{}
	for _, g := range guards {
		task, ok := g.Attrs["task"].(float64)
		if !ok {
			t.Fatalf("budget-guard without task attr: %v", g.Attrs)
		}
		seen[task] = true
		for _, key := range []string{"allowance", "cost", "admitted", "remaining"} {
			if _, ok := g.Attrs[key]; !ok {
				t.Fatalf("budget-guard missing %q: %v", key, g.Attrs)
			}
		}
	}
	if len(seen) != w.NumTasks() {
		t.Errorf("budget-guard covers %d distinct tasks, want %d", len(seen), w.NumTasks())
	}

	if len(events["place"]) != w.NumTasks() {
		t.Errorf("place events = %d, want %d", len(events["place"]), w.NumTasks())
	}
	if len(events["budget-decomposition"]) != 1 {
		t.Errorf("budget-decomposition events = %d, want 1", len(events["budget-decomposition"]))
	}
	cands := events["candidate"]
	if len(cands) < w.NumTasks() {
		t.Fatalf("candidate events = %d, want ≥ %d", len(cands), w.NumTasks())
	}
	for _, c := range cands[:5] {
		if _, ok := c.Attrs["eft"].(float64); !ok {
			t.Fatalf("candidate without numeric eft: %v", c.Attrs)
		}
		if _, ok := c.Attrs["cost"].(float64); !ok {
			t.Fatalf("candidate without numeric cost: %v", c.Attrs)
		}
	}

	// The exported file must be valid Chrome trace-event JSON.
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("chrome export: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome JSON round-trip: %v", err)
	}
	var guardsInChrome, spansInChrome int
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Name == "budget-guard" && ev.Ph == "i":
			guardsInChrome++
		case ev.Ph == "X":
			spansInChrome++
		}
	}
	if guardsInChrome != w.NumTasks() {
		t.Errorf("chrome export has %d budget-guard instants, want %d", guardsInChrome, w.NumTasks())
	}
	if spansInChrome < 3 { // root, plan, refine
		t.Errorf("chrome export has %d complete events, want ≥ 3", spansInChrome)
	}
}

// TestPlanContextWithoutSpanEmitsNothing pins the disabled path: a
// bare context must plan identically to the traced one and leave no
// way for the planners to observe a tracer. It plans every registered
// planner on the paper's platform, and a spot-aware twin on a market
// platform with a spot category.
func TestPlanContextWithoutSpanEmitsNothing(t *testing.T) {
	w := wfgen.MustGenerate(wfgen.Montage, 30, 2).WithSigmaRatio(0.5)
	type run struct {
		name Name
		p    *platform.Platform
	}
	var runs []run
	for _, a := range AllExtended() {
		runs = append(runs, run{a.Name, platform.Default()})
	}
	runs = append(runs, run{NameHeftBudg + spotSuffix, equivPlatforms(t)["market"]})
	for _, r := range runs {
		budget := 2 * cheapBudget(t, w, r.p)
		plain, err := PlanContext(stdcontext.Background(), r.name, w, r.p, budget)
		if err != nil {
			t.Fatalf("%s: plain plan: %v", r.name, err)
		}
		tr := obs.New("t")
		traced, err := PlanContext(obs.WithSpan(stdcontext.Background(), tr.Root()), r.name, w, r.p, budget)
		if err != nil {
			t.Fatalf("%s: traced plan: %v", r.name, err)
		}
		if !reflect.DeepEqual(plain, traced) {
			t.Errorf("%s: tracing changed the plan:\ntraced %+v\nplain  %+v", r.name, traced, plain)
		}
	}
}

// TestMinMinBudgTrace covers the MIN-MINBUDG emission sites: the
// chosen task's candidates plus guard and place per round.
func TestMinMinBudgTrace(t *testing.T) {
	w := wfgen.MustGenerate(wfgen.Montage, 20, 3).WithSigmaRatio(0.5)
	p := platform.Default()
	budget := 2 * cheapBudget(t, w, p)

	tr := obs.New("t")
	if _, err := PlanContext(obs.WithSpan(stdcontext.Background(), tr.Root()), NameMinMinBudg, w, p, budget); err != nil {
		t.Fatalf("plan: %v", err)
	}
	tr.EndAll()
	events := map[string][]obs.EventJSON{}
	collectEvents(tr.Tree().Root, events)
	if len(events["budget-guard"]) != w.NumTasks() {
		t.Errorf("budget-guard events = %d, want %d", len(events["budget-guard"]), w.NumTasks())
	}
	if len(events["place"]) != w.NumTasks() {
		t.Errorf("place events = %d, want %d", len(events["place"]), w.NumTasks())
	}
	if len(events["candidate"]) < w.NumTasks() {
		t.Errorf("candidate events = %d, want ≥ %d", len(events["candidate"]), w.NumTasks())
	}
}
