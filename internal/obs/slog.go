package obs

import (
	"context"
	"log/slog"
)

// Log replays the trace into a structured logger: one record per span
// (level Debug) carrying the span path, timing and attributes, and one
// per event. It is the bridge between the tracing core and log-based
// pipelines — a daemon running with -v debug logging gets every planner
// decision as a log line without a second instrumentation layer. It
// renders from a snapshot, so the logger runs without the trace mutex:
// a slow sink stalls no span, and a handler may use the trace itself.
func (t *Trace) Log(l *slog.Logger) {
	if l == nil || !l.Enabled(context.Background(), slog.LevelDebug) {
		return
	}
	root, id, _ := t.root.snapshot()
	logSpan(l, id, root.Name, root)
}

// logSpan emits one snapshot span's records and recurses.
func logSpan(l *slog.Logger, id, path string, s *SpanWire) {
	args := []any{
		slog.String("traceId", id),
		slog.String("span", path),
		slog.Float64("startUs", micros(s.StartNs)),
		slog.Float64("durUs", micros(s.EndNs-s.StartNs)),
	}
	for _, a := range s.Attrs {
		args = append(args, slog.Any(a.Key, a.value()))
	}
	l.Debug("span", args...)
	for _, e := range s.Events {
		eargs := []any{
			slog.String("traceId", id),
			slog.String("span", path),
			slog.String("event", e.Name),
			slog.Float64("atUs", micros(e.AtNs)),
		}
		for _, a := range e.Attrs {
			eargs = append(eargs, slog.Any(a.Key, a.value()))
		}
		l.Debug("span event", eargs...)
	}
	for _, c := range s.Children {
		logSpan(l, id, path+"/"+c.Name, c)
	}
}
