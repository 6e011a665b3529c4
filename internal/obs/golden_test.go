package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from this run")

// fixtureTrace builds a trace whose every timestamp is fixed: all spans
// below the root come from Graft at offset 0, the root's events are
// appended directly and its end is pinned, so the exporters' output is
// the same on every run. The single-process fixture has no ProcessAttr;
// the stitched one is a coordinator job whose three overlapping shard
// dispatches grafted subtrees from two worker processes, and whose node
// cap dropped three nodes. Both carry an in-flight frozen span and
// string, int, float (NaN included) and bool attributes.
func fixtureTrace(stitched bool) *Trace {
	ws := func(k, v string) WireAttr { return WireAttr{Key: k, Kind: "s", Str: v} }
	wi := func(k string, v int64) WireAttr { return WireAttr{Key: k, Kind: "i", Int: v} }
	wf := func(k string, v float64) WireAttr { return WireAttr{Key: k, Kind: "f", Float: v} }
	wb := func(k string, v bool) WireAttr { return WireAttr{Key: k, Kind: "b", Bool: v} }

	if !stitched {
		tr := New("schedule")
		tr.SetID("req-7")
		root := tr.Root()
		root.Set(Str("workflow", "montage-30"), Int("tasks", 30), Float("budget", 12.5),
			Bool("cached", false), Float("ratio", math.NaN()))
		root.Graft(&SpanWire{
			Name: "heftbudg", StartNs: 1_000, EndNs: 50_000,
			Attrs: []WireAttr{ws("alg", "heftbudg"), wf("spare", 0.25)},
			Events: []EventWire{
				{Name: "place", AtNs: 2_000, Attrs: []WireAttr{wi("task", 3), wf("eft", 12.5), wb("admitted", true), ws("vm", "small")}},
				{Name: "place", AtNs: 3_500, Attrs: []WireAttr{wi("task", 4), wf("eft", math.NaN()), wb("admitted", false)}},
			},
			Children: []*SpanWire{
				{Name: "ranks", StartNs: 1_200, EndNs: 1_900},
				{Name: "refine", StartNs: 5_000, EndNs: 40_000, InFlight: true, Attrs: []WireAttr{wi("upgrades", 2)}},
			},
		}, 0)
		root.Graft(&SpanWire{Name: "simulate", StartNs: 51_000, EndNs: 90_000,
			Attrs: []WireAttr{wi("reps", 25), wf("meanMakespan", 1234.5)}}, 0)
		tr.root.events = append(tr.root.events, Event{Name: "budget", At: 500, Attrs: []Attr{Float("cheapCost", 8.25)}})
		tr.root.end, tr.root.ended = 100_000, true
		return tr
	}

	tr := New("job:sweep")
	tr.SetID("job-1")
	root := tr.Root()
	root.Set(Str("kind", "sweep"), Int("cells", 12), Bool("durable", true))
	worker := func(proc string, start, end int64, inFlight bool, cell string) *SpanWire {
		return &SpanWire{
			Name: "worker", StartNs: start, EndNs: end, InFlight: inFlight,
			Attrs: []WireAttr{ws(ProcessAttr, proc), wf("load", math.NaN())},
			Children: []*SpanWire{{
				Name: "cell", StartNs: start + 1_000, EndNs: end - 1_000,
				Attrs:  []WireAttr{ws("cell", cell)},
				Events: []EventWire{{Name: "replicated", AtNs: start + 2_000, Attrs: []WireAttr{wi("reps", 25), wb("ok", true)}}},
			}},
		}
	}
	shard := func(i int64, start, end int64, w *SpanWire) *SpanWire {
		return &SpanWire{
			Name: "shard", StartNs: start, EndNs: end,
			Attrs:    []WireAttr{wi("shard", i), wf("clockOffsetUs", -1.5)},
			Events:   []EventWire{{Name: "dispatch", AtNs: start + 100, Attrs: []WireAttr{ws("worker", w.Attrs[0].Str)}}},
			Children: []*SpanWire{w},
		}
	}
	// Shards 0–2 overlap (three coordinator lanes, two on w1); shard 3
	// starts after shard 0 ended and reuses its lanes.
	root.Graft(shard(0, 1_000, 60_000, worker("http://w1", 5_000, 55_000, false, "0-3")), 0)
	root.Graft(shard(1, 2_000, 70_000, worker("http://w2", 6_000, 65_000, false, "4-7")), 0)
	root.Graft(shard(2, 3_000, 80_000, worker("http://w1", 8_000, 75_000, false, "8-11")), 0)
	root.Graft(shard(3, 65_000, 95_000, worker("http://w2", 66_000, 88_000, true, "12")), 0)
	tr.root.events = append(tr.root.events, Event{Name: "admitted", At: 400, Attrs: []Attr{Int("queue", 1)}})
	tr.root.end, tr.root.ended = 100_000, true
	tr.dropped = 3
	return tr
}

// exporterOutputs renders the fixture through every exporter: the Tree
// JSON, the root's Export JSON, the Chrome document and the slog
// records (JSON handler, time omitted).
func exporterOutputs(t *testing.T, tr *Trace) map[string][]byte {
	t.Helper()
	tree, err := json.MarshalIndent(tr.Tree(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	export, err := json.MarshalIndent(tr.Root().Export(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var chrome bytes.Buffer
	if err := tr.WriteChrome(&chrome); err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer
	tr.Log(slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{
		Level: slog.LevelDebug,
		ReplaceAttr: func(groups []string, a slog.Attr) slog.Attr {
			if len(groups) == 0 && a.Key == slog.TimeKey {
				return slog.Attr{}
			}
			return a
		},
	})))
	return map[string][]byte{
		"tree.json":   append(tree, '\n'),
		"export.json": append(export, '\n'),
		"chrome.json": chrome.Bytes(),
		"log.jsonl":   logs.Bytes(),
	}
}

// TestExportersGolden pins the bytes of all four exporters on the
// single-process and stitched fixtures against testdata/. Run with
// -update to regenerate, then read the diff.
func TestExportersGolden(t *testing.T) {
	for _, fx := range []struct {
		name     string
		stitched bool
	}{{"single", false}, {"stitched", true}} {
		for suffix, got := range exporterOutputs(t, fixtureTrace(fx.stitched)) {
			path := filepath.Join("testdata", fx.name+"."+suffix+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from the golden file\ngot:\n%s\nwant:\n%s", path, got, want)
			}
		}
	}
}
