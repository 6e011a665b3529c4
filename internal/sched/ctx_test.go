package sched

import (
	stdcontext "context"
	"errors"
	"fmt"
	"testing"

	"budgetwf/internal/obs"
	"budgetwf/internal/platform"
	"budgetwf/internal/stoch"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// TestPlanContextMatchesPlain pins that a background context changes
// nothing: every algorithm produces the same schedule through
// PlanContext as through its registry Plan function.
func TestPlanContextMatchesPlain(t *testing.T) {
	w, err := wfgen.Generate(wfgen.Montage, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	w = w.WithSigmaRatio(0.5)
	p := platform.Default()
	budget := 0.05
	for _, a := range AllExtended() {
		plain, err := a.Plan(w, p, budget)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		ctxed, err := PlanContext(stdcontext.Background(), a.Name, w, p, budget)
		if err != nil {
			t.Fatalf("%s via PlanContext: %v", a.Name, err)
		}
		if len(plain.VMCats) != len(ctxed.VMCats) || plain.EstMakespan != ctxed.EstMakespan {
			t.Errorf("%s: PlanContext diverges from Plan (%d vs %d VMs, makespan %v vs %v)",
				a.Name, len(plain.VMCats), len(ctxed.VMCats), plain.EstMakespan, ctxed.EstMakespan)
		}
	}
}

// TestPlanContextCancelled pins that every algorithm aborts with the
// context error when the context is already cancelled.
func TestPlanContextCancelled(t *testing.T) {
	w, err := wfgen.Generate(wfgen.Montage, 30, 1)
	if err != nil {
		t.Fatal(err)
	}
	w = w.WithSigmaRatio(0.5)
	p := platform.Default()
	ctx, cancel := stdcontext.WithCancel(stdcontext.Background())
	cancel()
	for _, a := range AllExtended() {
		if _, err := PlanContext(ctx, a.Name, w, p, 0.05); !errors.Is(err, stdcontext.Canceled) {
			t.Errorf("%s: want stdcontext.Canceled, got %v", a.Name, err)
		}
	}
}

// TestPlanContextUnknownName pins the registry's error path.
func TestPlanContextUnknownName(t *testing.T) {
	w, err := wfgen.Generate(wfgen.Chain, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PlanContext(stdcontext.Background(), "no-such-algorithm", w, platform.Default(), 1); err == nil {
		t.Fatal("unknown algorithm must error")
	}
}

// expiringCtx reports its deadline as passed from the (after+1)-th poll
// of Err on, and counts the polls.
type expiringCtx struct {
	stdcontext.Context
	after, polls int
}

func (c *expiringCtx) Err() error {
	c.polls++
	if c.polls <= c.after {
		return nil
	}
	return stdcontext.DeadlineExceeded
}

// TestPlanContextCoversRegistryAndSpotTwins: PlanContext has no
// dispatch table of its own — every registered name and its "-spot"
// twin, on a platform with a spot category, plans the bytes
// ByName(name).Plan plans, under a plan:<name> span, and returns the
// context's error at the first poll that sees it.
func TestPlanContextCoversRegistryAndSpotTwins(t *testing.T) {
	w := paperInstance(t, wfgen.Montage, 30, 1)
	p := equivPlatforms(t)["market"]
	if !p.HasSpot() {
		t.Fatal("the market platform has no spot category")
	}
	budget := 2 * cheapBudget(t, w, p)
	for _, base := range AllExtended() {
		for _, name := range []Name{base.Name, base.Name + spotSuffix} {
			a, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := a.Plan(w, p, budget)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			tr := obs.New("test")
			traced, err := PlanContext(obs.WithSpan(stdcontext.Background(), tr.Root()), name, w, p, budget)
			if err != nil {
				t.Fatalf("%s via PlanContext: %v", name, err)
			}
			if scheduleJSON(t, traced) != scheduleJSON(t, plain) {
				t.Errorf("%s: PlanContext and Plan disagree", name)
			}
			tr.EndAll()
			if findSpan(tr.Tree().Root, "plan:"+string(name)) == nil {
				t.Errorf("%s: no plan:%s span", name, name)
			}

			ctx := &expiringCtx{Context: stdcontext.Background(), after: 5}
			if _, err := PlanContext(ctx, name, w, p, budget); !errors.Is(err, stdcontext.DeadlineExceeded) {
				t.Errorf("%s: err = %v after the deadline, want DeadlineExceeded", name, err)
			}
			if ctx.polls != ctx.after+1 {
				t.Errorf("%s: polled %d times, want to stop at poll %d", name, ctx.polls, ctx.after+1)
			}
		}
	}
}

// TestNewContextAdjacency pins the planner context's flat adjacency:
// every task's pred and succ windows hold exactly wf.Pred/wf.Succ, in
// the same order, and are capped so an append can never write into a
// neighbour's window. A duplicate edge and an isolated task are
// included.
func TestNewContextAdjacency(t *testing.T) {
	dup := wf.New("dup")
	for i := 0; i < 4; i++ {
		dup.AddTask(fmt.Sprint(i), stoch.Dist{Mean: 1})
	}
	dup.MustAddEdge(0, 1, 5)
	dup.MustAddEdge(0, 2, 1)
	dup.MustAddEdge(0, 1, 2)
	flows := []*wf.Workflow{dup}
	for _, typ := range wfgen.AllPaperTypes() {
		w, err := wfgen.Generate(typ, 30, 4)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, w)
	}
	for _, w := range flows {
		ctx, err := newContext(w, platform.Default())
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < w.NumTasks(); id++ {
			tid := wf.TaskID(id)
			for _, c := range []struct {
				name      string
				got, want []wf.Edge
			}{{"pred", ctx.pred[id], w.Pred(tid)}, {"succ", ctx.succ[id], w.Succ(tid)}} {
				if len(c.got) != len(c.want) || cap(c.got) != len(c.want) {
					t.Fatalf("%s task %d %s: len %d cap %d, want %d", w.Name, id, c.name, len(c.got), cap(c.got), len(c.want))
				}
				for k := range c.want {
					if c.got[k] != c.want[k] {
						t.Fatalf("%s task %d %s[%d] = %+v, want %+v", w.Name, id, c.name, k, c.got[k], c.want[k])
					}
				}
			}
		}
	}
}
