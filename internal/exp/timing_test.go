package exp

import (
	"context"
	"testing"

	"budgetwf/internal/obs"
	"budgetwf/internal/platform"
	"budgetwf/internal/sched"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// TestMinMinBudgRescans pins how often MIN-MINBUDG re-scans a ready
// task's candidates, the work its cached picks exist to avoid, and how
// many task visits its allowance-free key skips: a traced plan of
// Montage n = 300 (seed 1) records the counts on its span. The cache
// before it learned to keep a lower bound once a pick's VM is booked
// (medium) and a fallback pick once a cheaper candidate appears (low)
// re-scanned 1 190 and 10 002 times. A re-scan reads the readiness
// index, which changes how it is done but not when, so the counts are
// exact. The key skips a task whose every candidate finishes after the
// round's best so far, which the full round would have deferred or
// seen lose: 11 650 deferrals at the medium budget and 417 at the low
// one before it, 553 and none with it.
//
// The plan visits 17 808 ready tasks over its 300 rounds at the medium
// budget. Before the key each of them ran the full round; with it at
// most five per round may compete (neither skipped nor deferred).
func TestMinMinBudgRescans(t *testing.T) {
	p := platform.Default()
	w := wfgen.MustGenerate(wfgen.Montage, 300, 1).WithSigmaRatio(0.5)
	a, err := ComputeAnchors(w, p)
	if err != nil {
		t.Fatal(err)
	}
	const visits = 17808 // Σ ready tasks over the medium-budget plan's rounds
	for _, c := range []struct {
		level                      BudgetLevel
		rescans, deferred, skipped int64
	}{{BudgetMedium, 587, 553, 15822}, {BudgetLow, 6768, 0, 1383}} {
		span := tracedPlan(t, sched.NameMinMinBudg, w, p, levelBudget(c.level, a))
		var got [3]int64
		for i, k := range []string{"rescans", "deferred", "skipped"} {
			v, ok := span.Attrs[k].(int64)
			if !ok {
				t.Fatalf("%s budget: span attrs %v lack an integer %s count", c.level, span.Attrs, k)
			}
			got[i] = v
		}
		t.Logf("%s budget: %d re-scans, %d deferred, %d skipped", c.level, got[0], got[1], got[2])
		if got != [3]int64{c.rescans, c.deferred, c.skipped} {
			t.Errorf("%s budget: %d re-scans, %d deferred and %d skipped, want %d, %d and %d",
				c.level, got[0], got[1], got[2], c.rescans, c.deferred, c.skipped)
		}
		if competed := visits - got[1] - got[2]; c.level == BudgetMedium && competed > 5*int64(w.NumTasks()) {
			t.Errorf("medium budget: %d of %d task visits competed, more than five per round", competed, visits)
		}
	}
}

// TestHeftBudgWalksFewVMs pins the readiness index's saving: traced
// HEFTBUDG and BDT plans of Montage n = 1000 (seed 1) at the medium
// budget record on their spans how many used-VM placements their
// selections evaluated. The HEFTBUDG plan uses 331 VMs, most of them
// booked early, and scanning every used VM placed 276 per task; the
// index placed 3.8, and 2.7 once the VMs that run a predecessor are
// evaluated in EFT floor order only until a floor passes the earliest
// affordable finish (TestFanInReadsFewPredEdges). BDT, whose TCTF score
// reads every host's EFT and cost range, placed every used VM for every
// task until its selection read the index too.
func TestHeftBudgWalksFewVMs(t *testing.T) {
	if testing.Short() {
		t.Skip("plans n = 1000")
	}
	p := platform.Default()
	w := wfgen.MustGenerate(wfgen.Montage, 1000, 1).WithSigmaRatio(0.5)
	a, err := ComputeAnchors(w, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []sched.Name{sched.NameHeftBudg, sched.NameBDT} {
		span := tracedPlan(t, alg, w, p, levelBudget(BudgetMedium, a))
		walked, ok := span.Attrs["walked"].(int64)
		if !ok {
			t.Fatalf("%s: span attrs %v lack an integer walked count", alg, span.Attrs)
		}
		perTask := float64(walked) / float64(w.NumTasks())
		t.Logf("%s: %d placements on used VMs, %.1f per task", alg, walked, perTask)
		if perTask >= 20 {
			t.Errorf("%s: %.1f used-VM placements per task, want fewer than 20", alg, perTask)
		}
	}
}

// TestFanInReadsFewPredEdges pins the EFT floor's saving: traced plans
// at n = 1000 (seed 1, medium budget) record on their spans how many
// predecessor edges the selections' full evaluations read. Evaluating
// every VM that runs a predecessor of a fan-in task read each of its
// edges once per such VM: HEFTBUDG read 498 501 edges on CyberShake and
// 187 021 on Montage, against |E| = 1 497 and 1 993. Evaluated in floor
// order until a floor passes the earliest affordable finish, a task's
// edges are read about once per selection.
func TestFanInReadsFewPredEdges(t *testing.T) {
	if testing.Short() {
		t.Skip("plans n = 1000")
	}
	p := platform.Default()
	for _, typ := range []wfgen.Type{wfgen.CyberShake, wfgen.Montage} {
		w := wfgen.MustGenerate(typ, 1000, 1).WithSigmaRatio(0.5)
		a, err := ComputeAnchors(w, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range []sched.Name{sched.NameHeftBudg, sched.NameHeft, sched.NameCG, sched.NameMinMin} {
			span := tracedPlan(t, alg, w, p, levelBudget(BudgetMedium, a))
			read, ok := span.Attrs["predEdges"].(int64)
			if !ok {
				t.Fatalf("%s %s: span attrs %v lack an integer predEdges count", typ, alg, span.Attrs)
			}
			t.Logf("%s %s: %d predecessor edges read, |E| = %d", typ, alg, read, w.NumEdges())
			if read > int64(2*w.NumEdges()) {
				t.Errorf("%s %s: %d predecessor edges read, want at most 2·|E| = %d", typ, alg, read, 2*w.NumEdges())
			}
		}
	}
}

// tracedPlan plans under a trace and returns the plan's span.
func tracedPlan(t *testing.T, alg sched.Name, w *wf.Workflow, p *platform.Platform, budget float64) *obs.SpanJSON {
	t.Helper()
	tr := obs.New("t")
	if _, err := sched.PlanContext(obs.WithSpan(context.Background(), tr.Root()), alg, w, p, budget); err != nil {
		t.Fatal(err)
	}
	tr.EndAll()
	span := planSpan(tr.Tree().Root, "plan:"+string(alg))
	if span == nil {
		t.Fatalf("no %s plan span", alg)
	}
	return span
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

// TestTracedPlansRecordEveryTask: traced HEFTBUDG and MIN-MINBUDG plans
// of Montage n = 1000 (seed 1, medium budget) keep every trace node,
// record one place and one budget-guard event per task, and list each
// placed host among the task's candidate events. The candidates are
// the hosts the selection read from the readiness index, a few per
// task, so that a plan of 1 000 tasks stays within obs's node cap,
// which every used VM per task would overrun. Tracing leaves the work
// counts of the selections where an untraced plan has them: the
// winner's walk that MIN-MINBUDG traces is not counted.
func TestTracedPlansRecordEveryTask(t *testing.T) {
	if testing.Short() {
		t.Skip("plans n = 1000")
	}
	p := platform.Default()
	w := wfgen.MustGenerate(wfgen.Montage, 1000, 1).WithSigmaRatio(0.5)
	a, err := ComputeAnchors(w, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		alg    sched.Name
		walked int64
	}{{sched.NameHeftBudg, 2718}, {sched.NameMinMinBudg, 10817}} {
		tr := obs.New("t")
		if _, err := sched.PlanContext(obs.WithSpan(context.Background(), tr.Root()), c.alg, w, p, levelBudget(BudgetMedium, a)); err != nil {
			t.Fatal(err)
		}
		tr.EndAll()
		tree := tr.Tree()
		if tree.Dropped != 0 {
			t.Errorf("%s: %d trace nodes dropped", c.alg, tree.Dropped)
		}
		span := planSpan(tree.Root, "plan:"+string(c.alg))
		if span == nil {
			t.Fatalf("no %s plan span", c.alg)
		}
		if walked := span.Attrs["walked"]; walked != c.walked {
			t.Errorf("%s: walked %v, want %d", c.alg, walked, c.walked)
		}
		// host is a placement's task, VM, category, EFT and cost.
		type host struct {
			task, vm, cat int64
			eft, cost     float64
		}
		of := func(e obs.EventJSON) host {
			h := host{eft: e.Attrs["eft"].(float64), cost: e.Attrs["cost"].(float64)}
			h.task, h.vm, h.cat = e.Attrs["task"].(int64), e.Attrs["vm"].(int64), e.Attrs["cat"].(int64)
			return h
		}
		events := map[string][]obs.EventJSON{}
		for _, e := range span.Events {
			events[e.Name] = append(events[e.Name], e)
		}
		listed := map[host]bool{}
		for _, e := range events["candidate"] {
			listed[of(e)] = true
		}
		for _, name := range []string{"place", "budget-guard"} {
			tasks := map[int64]bool{}
			for _, e := range events[name] {
				tasks[e.Attrs["task"].(int64)] = true
			}
			if len(events[name]) != w.NumTasks() || len(tasks) != w.NumTasks() {
				t.Errorf("%s: %d %s events over %d tasks, want one for each of %d", c.alg, len(events[name]), name, len(tasks), w.NumTasks())
			}
		}
		for _, e := range events["place"] {
			if h := of(e); !listed[h] {
				t.Errorf("%s: task %d placed on %+v, which no candidate event lists", c.alg, h.task, h)
				break
			}
		}
		t.Logf("%s: %d candidate events", c.alg, len(events["candidate"]))
	}
}
