package main

import (
	"os"
	"sort"
	"time"

	"budgetwf/internal/obs"
)

// The benchmark's own span recorder. The program under test is not
// instrumented by this benchmark: spans are recorded here, around the
// calls into each layer, kept in memory, and written out as Chrome
// trace-event JSON when the traced pass ends.

// span is one timed interval: a layer call, or an op that groups them.
type span struct {
	name   string
	start  time.Duration // since the recorder's epoch
	end    time.Duration
	parent int // index into recorder.spans, -1 for a root
	op     int // spans of one op share this id
}

func (s span) dur() time.Duration { return s.end - s.start }

// recorder collects spans from one goroutine; the traced pass is
// sequential, so there is no locking.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(name string, parent, op int) int {
	r.spans = append(r.spans, span{name: name, start: time.Since(r.epoch), parent: parent, op: op})
	return len(r.spans) - 1
}

func (r *recorder) end(i int) { r.spans[i].end = time.Since(r.epoch) }

// add records a span measured elsewhere (a daemon's own trace, mapped
// onto this recorder's clock).
func (r *recorder) add(name string, start, end time.Duration, parent, op int) int {
	r.spans = append(r.spans, span{name: name, start: start, end: end, parent: parent, op: op})
	return len(r.spans) - 1
}

// time runs f inside a span.
func (r *recorder) time(name string, parent, op int, f func()) {
	i := r.begin(name, parent, op)
	f()
	r.end(i)
}

// durations returns every span duration of the given name.
func (r *recorder) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// total and medianOf summarize the spans of one name, in the unit the
// caller divides by (time.Microsecond, time.Millisecond).
func (r *recorder) total(name string, unit time.Duration) float64 {
	t := time.Duration(0)
	for _, d := range r.durations(name) {
		t += d
	}
	return float64(t) / float64(unit)
}

func (r *recorder) medianOf(name string, unit time.Duration) float64 {
	ds := r.durations(name)
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return median(xs)
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval its direct children cover (overlapping children are
// counted once).
func (r *recorder) selfTimes() []time.Duration {
	children := make(map[int][]span)
	for _, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		out[i] = s.dur() - cover(children[i], s.start, s.end)
	}
	return out
}

// cover is the length of the union of the spans' intervals, clipped to
// [lo, hi].
func cover(spans []span, lo, hi time.Duration) time.Duration {
	sort.Slice(spans, func(a, b int) bool { return spans[a].start < spans[b].start })
	total, at := time.Duration(0), lo
	for _, s := range spans {
		st, en := s.start, s.end
		if st < at {
			st = at
		}
		if en > hi {
			en = hi
		}
		if en > st {
			total += en - st
			at = en
		}
	}
	return total
}

// writeChrome writes the spans as a Chrome trace-event document (load
// it in chrome://tracing or ui.perfetto.dev). Each op gets its own
// track so concurrent shards of one job do not hide each other; the
// viewer nests same-track slices by their timestamps.
func (r *recorder) writeChrome(path string) error {
	self := r.selfTimes()
	doc := obs.ChromeTrace{DisplayTimeUnit: "ms"}
	for i, s := range r.spans {
		doc.TraceEvents = append(doc.TraceEvents, obs.ChromeEvent{
			Name: s.name, Ph: "X", PID: 1, TID: s.op,
			TS:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.dur()) / float64(time.Microsecond),
			Args: map[string]any{
				"id": i, "parent": s.parent,
				"selfUs": float64(self[i]) / float64(time.Microsecond),
			},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := doc.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
