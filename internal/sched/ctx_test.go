package sched

import (
	stdcontext "context"
	"errors"
	"testing"

	"budgetwf/internal/obs"
	"budgetwf/internal/platform"
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
