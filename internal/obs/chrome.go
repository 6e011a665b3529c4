package obs

import (
	"encoding/json"
	"io"
	"slices"
)

// The Chrome trace-event format: the JSON document consumed by
// chrome://tracing and https://ui.perfetto.dev. These types are the
// single definition in the repository — internal/sim's VM-timeline
// exporter builds the same document from simulation timestamps.

// ChromeEvent is one entry of the trace-event array. Durations use
// the "X" (complete) phase, instants the "i" phase; timestamps are
// microseconds.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the document root.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// Write encodes the document as JSON.
func (c *ChromeTrace) Write(w io.Writer) error {
	return json.NewEncoder(w).Encode(c)
}

// MetaThreadName returns the metadata event that names a timeline row.
func MetaThreadName(pid, tid int, name string) ChromeEvent {
	return ChromeEvent{Name: "thread_name", Ph: "M", PID: pid, TID: tid,
		Args: map[string]any{"name": name}}
}

// MetaProcessName returns the metadata event that names a process
// group (one per remote process in a stitched trace).
func MetaProcessName(pid int, name string) ChromeEvent {
	return ChromeEvent{Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]any{"name": name}}
}

// ChromeTrace renders the span tree as a trace-event document: every
// span becomes an "X" complete event and every event an "i" instant.
//
// A single-process trace stays on one thread track: the viewer nests
// same-track slices by their timestamps, reproducing the tree. A
// stitched trace — one whose spans carry ProcessAttr — is the same
// document with a synthetic pid per remote process (coordinator = 0,
// workers numbered by sorted process name), process_name metadata, and
// a tid per concurrent span lane, so the viewer renders one swimlane
// per worker.
func (t *Trace) ChromeTrace() *ChromeTrace {
	root, _, _ := t.root.snapshot()
	var procs []string
	var collect func(*SpanWire)
	collect = func(s *SpanWire) {
		for _, a := range s.Attrs {
			if a.Key == ProcessAttr && a.Kind == "s" && a.Str != "" {
				procs = append(procs, a.Str)
			}
		}
		for _, c := range s.Children {
			collect(c)
		}
	}
	collect(root)
	slices.Sort(procs)
	procs = slices.Compact(procs)

	doc := &ChromeTrace{DisplayTimeUnit: "ms"}
	if len(procs) > 0 {
		doc.TraceEvents = append(doc.TraceEvents, MetaProcessName(0, "coordinator"))
	}
	doc.TraceEvents = append(doc.TraceEvents, MetaThreadName(0, 0, t.name))
	pidOf := make(map[string]int, len(procs))
	for i, p := range procs {
		pidOf[p] = i + 1
		doc.TraceEvents = append(doc.TraceEvents, MetaProcessName(i+1, p))
	}
	// lanes[pid] holds, per tid, the end of the last slice placed
	// there; a lane root takes the first lane free at its start time.
	lanes := make(map[int][]int64)

	// emit places one span on (pid, tid) and recurses. A span opens a
	// new lane when it hops processes (carries ProcessAttr) or, in a
	// stitched trace, is a direct child of the root — those are the
	// concurrent shard dispatches; everything deeper inherits its
	// parent's lane, which is correct because within one process the
	// subtree intervals nest.
	var emit func(s *SpanWire, pid, tid int, newLane bool)
	emit = func(s *SpanWire, pid, tid int, newLane bool) {
		if id, ok := pidOf[processOf(s)]; ok {
			pid, newLane = id, true
		}
		if newLane {
			tid = allocLane(lanes, pid, s.StartNs, s.EndNs)
		}
		doc.TraceEvents = append(doc.TraceEvents, ChromeEvent{
			Name: s.Name, Cat: "span", Ph: "X",
			TS: micros(s.StartNs), Dur: micros(s.EndNs - s.StartNs),
			PID: pid, TID: tid, Args: attrMap(s.Attrs),
		})
		for _, e := range s.Events {
			doc.TraceEvents = append(doc.TraceEvents, ChromeEvent{
				Name: e.Name, Cat: "event", Ph: "i", Scope: "t",
				TS: micros(e.AtNs), PID: pid, TID: tid, Args: attrMap(e.Attrs),
			})
		}
		for _, c := range s.Children {
			emit(c, pid, tid, s == root && len(procs) > 0)
		}
	}
	emit(root, 0, 0, false)
	return doc
}

// processOf returns the span's own ProcessAttr value, if any.
func processOf(s *SpanWire) string {
	for _, a := range s.Attrs {
		if a.Key == ProcessAttr && a.Kind == "s" {
			return a.Str
		}
	}
	return ""
}

// allocLane places [start, end] on the first lane of pid whose last
// slice has finished, extending the lane set otherwise. Lane roots
// arrive in start order (children are appended under the trace mutex
// with monotonic starts), so first-fit keeps lanes non-overlapping.
func allocLane(lanes map[int][]int64, pid int, start, end int64) int {
	ls := lanes[pid]
	for i, last := range ls {
		if last <= start {
			ls[i] = end
			return i
		}
	}
	lanes[pid] = append(ls, end)
	return len(ls)
}

// WriteChrome writes the span tree in the Chrome trace-event format;
// the output loads in chrome://tracing and Perfetto.
func (t *Trace) WriteChrome(w io.Writer) error {
	return t.ChromeTrace().Write(w)
}
