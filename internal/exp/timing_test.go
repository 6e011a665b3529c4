package exp

import (
	"context"
	"testing"

	"budgetwf/internal/obs"
	"budgetwf/internal/platform"
	"budgetwf/internal/sched"
	"budgetwf/internal/wfgen"
)

// TestMinMinBudgRescans pins how often MIN-MINBUDG re-scans a ready
// task's candidates, the work its cached picks exist to avoid: a traced
// plan of Montage n = 300 (seed 1) records the count on its span. The
// ceilings are the counts measured when the caches learned to keep a
// lower bound once a pick's VM is booked (medium) and a fallback pick
// once a cheaper candidate appears (low), plus 10 %; the cache before
// that re-scanned 1 190 and 10 002 times.
func TestMinMinBudgRescans(t *testing.T) {
	p := platform.Default()
	w := wfgen.MustGenerate(wfgen.Montage, 300, 1).WithSigmaRatio(0.5)
	a, err := ComputeAnchors(w, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		level    BudgetLevel
		measured int
	}{{BudgetMedium, 590}, {BudgetLow, 6768}} {
		tr := obs.New("t")
		if _, err := sched.PlanContext(obs.WithSpan(context.Background(), tr.Root()), sched.NameMinMinBudg, w, p, levelBudget(c.level, a)); err != nil {
			t.Fatal(err)
		}
		tr.EndAll()
		span := planSpan(tr.Tree().Root, "plan:"+string(sched.NameMinMinBudg))
		if span == nil {
			t.Fatal("no MIN-MINBUDG plan span")
		}
		rescans, ok := span.Attrs["rescans"].(int64)
		if _, hasDeferred := span.Attrs["deferred"].(int64); !ok || !hasDeferred {
			t.Fatalf("%s budget: span attrs %v lack integer rescans and deferred counts", c.level, span.Attrs)
		}
		t.Logf("%s budget: %d re-scans, %d deferred", c.level, rescans, span.Attrs["deferred"])
		if limit := int64(c.measured * 11 / 10); rescans > limit {
			t.Errorf("%s budget: %d re-scans, above %d (measured %d + 10 %%)", c.level, rescans, limit, c.measured)
		}
	}
}

// planSpan returns the first span with the given name, depth-first.
func planSpan(s *obs.SpanJSON, name string) *obs.SpanJSON {
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if f := planSpan(c, name); f != nil {
			return f
		}
	}
	return nil
}
