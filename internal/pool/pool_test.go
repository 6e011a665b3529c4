package pool

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"budgetwf/internal/online"
	"budgetwf/internal/platform"
	"budgetwf/internal/reqerr"
	"budgetwf/internal/rng"
	"budgetwf/internal/sched"
	"budgetwf/internal/sim"
	"budgetwf/internal/wfgen"
)

// testPlatform returns the default platform with a billing quantum —
// the regime where a shared pool has anything to share.
func testPlatform(quantum float64) *platform.Platform {
	p := platform.Default()
	p.BillingQuantum = quantum
	return p
}

func testPolicy() online.Policy {
	return online.Policy{TimeoutSigma: 2, GainFactor: 1, MaxMigrations: 1}
}

// TestSingleSubmissionMatchesOnline pins the tentpole equivalence: a
// single-tenant, single-workflow run through the shared pool produces
// a Report bit-identical to internal/online's standalone executor on
// the same workflow, weights, platform and budget.
func TestSingleSubmissionMatchesOnline(t *testing.T) {
	for _, family := range []wfgen.Type{wfgen.Montage, wfgen.CyberShake, wfgen.Chain} {
		w, err := wfgen.Generate(family, 20, 11)
		if err != nil {
			t.Fatal(err)
		}
		p := testPlatform(3600)
		const budget = 5.0
		schedule, err := sched.PlanContext(context.Background(), sched.NameHeftBudg, w, p, budget)
		if err != nil {
			t.Fatal(err)
		}
		weights := sim.SampleWeights(w, rng.New(99))

		pol := testPolicy()
		pol.Budget = budget
		want, err := online.Execute(w, p, schedule, weights, pol)
		if err != nil {
			t.Fatal(err)
		}

		res, err := RunSubmissions(Config{Platform: p, Policy: testPolicy()}, []Submission{{
			Tenant:    TenantSpec{ID: "solo"},
			Workflow:  w,
			Algorithm: string(sched.NameHeftBudg),
			Budget:    budget,
			Weights:   weights,
		}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		o := res.Outcomes[0]
		if o.State != StateDone {
			t.Fatalf("%s: outcome %s (%s), want done", family, o.State, o.Reason)
		}
		if !reflect.DeepEqual(want, o.Report) {
			t.Errorf("%s: pooled Report differs from online.Execute:\nonline: %+v\npooled: %+v",
				family, want, o.Report)
		}
	}
}

// renderDecisions joins the decision log into the byte sequence the
// determinism property compares.
func renderDecisions(ds []Decision) string {
	var b strings.Builder
	for _, d := range ds {
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	return b.String()
}

func testTrace() TraceSpec {
	return TraceSpec{
		Seed: 7,
		Tenants: []TenantTraffic{
			{Tenant: TenantSpec{ID: "alice"}, Rate: 2, Count: 4, WorkflowType: "montage", Tasks: 12, Budget: 5, Algorithm: "heftbudg"},
			{Tenant: TenantSpec{ID: "bob"}, Rate: 3, Count: 4, WorkflowType: "chain", Tasks: 8, Algorithm: "heft"},
			{Tenant: TenantSpec{ID: "carol", Budget: 50}, Rate: 1, Count: 3, WorkflowType: "cybershake", Tasks: 12, Budget: 8, Algorithm: "heftbudg+"},
		},
	}
}

// TestTraceDeterminism: a fixed seed and a fixed submission trace
// yield a byte-identical sequence of scheduling decisions, run to run.
func TestTraceDeterminism(t *testing.T) {
	cfg := Config{Platform: testPlatform(3600), Policy: testPolicy(), Seed: 7}
	a, err := RunTrace(cfg, testTrace(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrace(cfg, testTrace(), nil)
	if err != nil {
		t.Fatal(err)
	}
	da, db := renderDecisions(a.Decisions), renderDecisions(b.Decisions)
	if da != db {
		t.Fatalf("decision logs differ between identical runs:\n--- run A\n%s\n--- run B\n%s", da, db)
	}
	if len(a.Decisions) == 0 {
		t.Fatal("empty decision log")
	}
	if !reflect.DeepEqual(a.Stats, b.Stats) {
		t.Fatalf("stats differ: %+v vs %+v", a.Stats, b.Stats)
	}
	for i := range a.Outcomes {
		if !reflect.DeepEqual(a.Outcomes[i], b.Outcomes[i]) {
			t.Fatalf("outcome %d differs: %+v vs %+v", i, a.Outcomes[i], b.Outcomes[i])
		}
	}
}

// twoChainSubs is a minimal reuse scenario: the same tenant (or two
// tenants) submit two small chains back to back, the second arriving
// after the first settles.
func twoChainSubs(t *testing.T, tenantA, tenantB string, secondAt float64) []Submission {
	t.Helper()
	w1, err := wfgen.Generate(wfgen.Chain, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := wfgen.Generate(wfgen.Chain, 6, 4)
	if err != nil {
		t.Fatal(err)
	}
	return []Submission{
		{At: 0, Tenant: TenantSpec{ID: tenantA}, Workflow: w1, Algorithm: "heft"},
		{At: secondAt, Tenant: TenantSpec{ID: tenantB}, Workflow: w2, Algorithm: "heft"},
	}
}

// TestBillingBoundaryDeprovision is the keep/release table: an idle VM
// is kept while its remaining paid time exceeds TimeToShutdown and
// released otherwise, with the wasted idle tail billed to the tenant
// that provisioned it.
func TestBillingBoundaryDeprovision(t *testing.T) {
	const quantum = 1e7 // huge: the first workflow ends far from the boundary
	base := Config{Platform: testPlatform(quantum), Policy: testPolicy(), Seed: 1}

	// Probe run with a tiny threshold: the VM must be kept idle and
	// reused; record its remaining paid time at release.
	keep := base
	keep.TimeToShutdown = 1
	res, err := RunSubmissions(keep, twoChainSubs(t, "alice", "bob", 1000), nil)
	if err != nil {
		t.Fatal(err)
	}
	var remaining float64
	for _, d := range res.Decisions {
		if d.Kind == "release" {
			remaining = d.Amount
			break
		}
	}
	if remaining <= 0 {
		t.Fatalf("no release decision in keep run:\n%s", renderDecisions(res.Decisions))
	}
	if res.Stats.Reused == 0 {
		t.Fatalf("keep run: expected reuse, got stats %+v", res.Stats)
	}
	bob, _ := findTenant(res.Tenants, "bob")
	if bob.ReusedVMs == 0 || bob.SavedInitCost <= 0 {
		t.Fatalf("keep run: bob should have reused alice's VM: %+v", bob)
	}
	// The idle gap before bob leased the VM is alice's waste.
	alice, _ := findTenant(res.Tenants, "alice")
	if alice.IdleWasteSeconds <= 0 {
		t.Fatalf("keep run: idle gap not attributed to provisioning tenant: %+v", alice)
	}

	// The deprovision timer fires at paidUntil - tts, i.e. roughly
	// (remaining - tts) after the first settlement; the second
	// submission arrives 1000s after the first, so:
	cases := []struct {
		name     string
		tts      float64
		wantKept bool
	}{
		{"still idle at second arrival: kept", remaining - 2000, true},
		{"timer fires before second arrival: released", remaining - 500, false},
		{"below threshold at settle: released immediately", remaining + 1, false},
		{"threshold at a full quantum: released immediately", quantum, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.TimeToShutdown = tc.tts
			res, err := RunSubmissions(cfg, twoChainSubs(t, "alice", "bob", 1000), nil)
			if err != nil {
				t.Fatal(err)
			}
			reused := res.Stats.Reused > 0
			if reused != tc.wantKept {
				t.Fatalf("tts=%v: reused=%v, want kept=%v\n%s",
					tc.tts, reused, tc.wantKept, renderDecisions(res.Decisions))
			}
			alice, _ := findTenant(res.Tenants, "alice")
			bobV, _ := findTenant(res.Tenants, "bob")
			if !tc.wantKept {
				// The whole paid tail is alice's waste; bob pays full
				// setup on a fresh VM.
				if alice.IdleWasteSeconds < remaining-2 {
					t.Fatalf("tts=%v: released VM's paid tail (%v) not billed to alice: %+v",
						tc.tts, remaining, alice)
				}
				if bobV.SavedInitCost != 0 {
					t.Fatalf("tts=%v: bob saved setup without reuse: %+v", tc.tts, bobV)
				}
			}
		})
	}
}

func findTenant(vs []TenantView, id string) (TenantView, bool) {
	for _, v := range vs {
		if v.ID == id {
			return v, true
		}
	}
	return TenantView{}, false
}

// TestSharedPoolCheaperThanPrivatePools: on a multi-tenant trace with
// a billing quantum, shared-pool reuse measurably lowers the total
// billed cost versus per-workflow private pools (reuse disabled by a
// threshold of a full quantum).
func TestSharedPoolCheaperThanPrivatePools(t *testing.T) {
	spec := testTrace()
	pooled := Config{Platform: testPlatform(3600), Policy: testPolicy(), Seed: 7, TimeToShutdown: 360}
	private := pooled
	private.TimeToShutdown = 3600 // every released VM is instantly below threshold

	rp, err := RunTrace(pooled, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := RunTrace(private, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Stats.Reused != 0 {
		t.Fatalf("private baseline reused VMs: %+v", rr.Stats)
	}
	if rp.Stats.Reused == 0 {
		t.Fatalf("pooled run never reused a VM: %+v", rp.Stats)
	}
	if rp.Stats.BilledTotal >= rr.Stats.BilledTotal {
		t.Fatalf("shared pool did not lower billed cost: pooled %v >= private %v",
			rp.Stats.BilledTotal, rr.Stats.BilledTotal)
	}
}

// TestAdmission covers the fair-share rejections: concurrent-workflow
// cap, VM cap, exhausted tenant budget.
func TestAdmission(t *testing.T) {
	p := testPlatform(3600)

	t.Run("queue cap", func(t *testing.T) {
		subs := twoChainSubs(t, "a", "a", 0) // both arrive at t=0
		subs[0].Tenant.MaxQueued = 1
		subs[1].Tenant.MaxQueued = 1
		res, err := RunSubmissions(Config{Platform: p, Policy: testPolicy()}, subs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcomes[0].State != StateDone || res.Outcomes[1].State != StateRejected {
			t.Fatalf("outcomes: %+v / %+v", res.Outcomes[0], res.Outcomes[1])
		}
		if !strings.Contains(res.Outcomes[1].Reason, "concurrent-workflow cap") {
			t.Fatalf("reason: %q", res.Outcomes[1].Reason)
		}
	})

	t.Run("vm cap", func(t *testing.T) {
		subs := twoChainSubs(t, "a", "a", 0)
		subs[0].Tenant.MaxVMs = 1
		subs[1].Tenant.MaxVMs = 1
		res, err := RunSubmissions(Config{Platform: p, Policy: testPolicy()}, subs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcomes[1].State != StateRejected || !strings.Contains(res.Outcomes[1].Reason, "VM cap") {
			t.Fatalf("outcome: %+v", res.Outcomes[1])
		}
	})

	t.Run("budget exhausted", func(t *testing.T) {
		subs := twoChainSubs(t, "a", "a", 1e6) // second arrives after first settles
		subs[0].Tenant.Budget = 1e-9
		subs[1].Tenant.Budget = 1e-9
		res, err := RunSubmissions(Config{Platform: p, Policy: testPolicy()}, subs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcomes[1].State != StateRejected || !strings.Contains(res.Outcomes[1].Reason, "budget exhausted") {
			t.Fatalf("outcome: %+v", res.Outcomes[1])
		}
	})
}

// TestEnqueueValidation classifies spec defects: scalar-domain
// violations name their field, unusable specs are Semantic.
func TestEnqueueValidation(t *testing.T) {
	w, err := wfgen.Generate(wfgen.Chain, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := New(Config{Platform: testPlatform(3600)})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	good := Submission{Tenant: TenantSpec{ID: "t"}, Workflow: w, Algorithm: "heft"}

	cases := []struct {
		name       string
		mutate     func(*Submission)
		wantField  string // non-empty → scalar-domain error on this field
		wantSemErr bool
	}{
		{"nan budget", func(s *Submission) { s.Budget = math.NaN() }, "budget", false},
		{"inf budget", func(s *Submission) { s.Budget = math.Inf(1) }, "budget", false},
		{"negative budget", func(s *Submission) { s.Budget = -1 }, "budget", false},
		{"nan tenant budget", func(s *Submission) { s.Tenant.Budget = math.NaN() }, "tenant.budget", false},
		{"missing tenant id", func(s *Submission) { s.Tenant.ID = "" }, "tenant.id", false},
		{"negative arrival", func(s *Submission) { s.At = -5 }, "at", false},
		{"bad weights length", func(s *Submission) { s.Weights = []float64{1} }, "weights", false},
		{"unknown algorithm", func(s *Submission) { s.Algorithm = "nope" }, "", true},
		{"missing workflow", func(s *Submission) { s.Workflow = nil }, "", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sub := good
			tc.mutate(&sub)
			_, err := pl.Enqueue(ctx, sub)
			if err == nil {
				t.Fatal("no error")
			}
			var re *reqerr.Error
			if !errors.As(err, &re) || re.Field != tc.wantField || re.Semantic != tc.wantSemErr {
				t.Fatalf("want field %q, semantic %v; got %#v", tc.wantField, tc.wantSemErr, err)
			}
		})
	}

	// Conflicting re-registration of a tenant is semantic.
	if _, err := pl.Enqueue(ctx, good); err != nil {
		t.Fatal(err)
	}
	conflict := good
	conflict.Tenant.MaxVMs = 3
	var re *reqerr.Error
	if _, err := pl.Enqueue(ctx, conflict); !errors.As(err, &re) || !re.Semantic {
		t.Fatalf("conflicting tenant limits: want a semantic error, got %v", err)
	}
}

// TestTraceSpecValidation mirrors the sweep validation style:
// per-field 400-class errors and semantic 422-class errors.
func TestTraceSpecValidation(t *testing.T) {
	base := testTrace()
	t.Run("zero rate", func(t *testing.T) {
		spec := base
		spec.Tenants = append([]TenantTraffic(nil), base.Tenants...)
		spec.Tenants[1].Rate = 0
		var re *reqerr.Error
		if err := spec.Validate(); !errors.As(err, &re) || re.Semantic || re.Field != "tenants[1].rate" {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("nan tenant budget", func(t *testing.T) {
		spec := base
		spec.Tenants = append([]TenantTraffic(nil), base.Tenants...)
		spec.Tenants[0].Tenant.Budget = math.Inf(1)
		var re *reqerr.Error
		if err := spec.Validate(); !errors.As(err, &re) || re.Semantic || re.Field != "tenants[0].tenant.budget" {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("duplicate tenant ids", func(t *testing.T) {
		spec := base
		spec.Tenants = append([]TenantTraffic(nil), base.Tenants...)
		spec.Tenants[1].Tenant.ID = spec.Tenants[0].Tenant.ID
		var re *reqerr.Error
		if err := spec.Validate(); !errors.As(err, &re) || !re.Semantic {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("unknown family", func(t *testing.T) {
		spec := base
		spec.Tenants = append([]TenantTraffic(nil), base.Tenants...)
		spec.Tenants[0].WorkflowType = "spiral"
		var re *reqerr.Error
		if err := spec.Validate(); !errors.As(err, &re) || !re.Semantic {
			t.Fatalf("got %v", err)
		}
	})
	t.Run("valid", func(t *testing.T) {
		if err := base.Validate(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestServiceConcurrentSubmits exercises the locked front under the
// race detector: concurrent submitters, consistent ledgers.
func TestServiceConcurrentSubmits(t *testing.T) {
	svc, err := NewService(Config{Platform: testPlatform(3600), Policy: testPolicy(), TimeToShutdown: 360})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	done := make(chan *Outcome, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			w, err := wfgen.Generate(wfgen.Chain, 6, uint64(i))
			if err != nil {
				t.Error(err)
				done <- nil
				return
			}
			o, err := svc.Submit(context.Background(), Submission{
				Tenant:    TenantSpec{ID: []string{"a", "b"}[i%2]},
				Workflow:  w,
				Algorithm: "heft",
			})
			if err != nil {
				t.Error(err)
			}
			done <- o
		}(i)
	}
	completed := 0
	for i := 0; i < n; i++ {
		if o := <-done; o != nil && o.State == StateDone {
			completed++
		}
	}
	if completed != n {
		t.Fatalf("completed %d of %d submissions", completed, n)
	}
	st := svc.Stats()
	if st.Completed != n || st.ActiveVMs != 0 {
		t.Fatalf("stats after drain: %+v", st)
	}
	views := svc.Tenants()
	if len(views) != 2 {
		t.Fatalf("tenants: %+v", views)
	}
	var billed float64
	for _, v := range views {
		billed += v.Billed
	}
	if math.Abs(billed-st.BilledTotal) > 1e-9 {
		t.Fatalf("tenant billed sum %v != pool total %v", billed, st.BilledTotal)
	}
}

// TestServiceKeepsNoSettledState: a service that has served N
// submissions, done and rejected at admission, holds no
// decision and, for none of them, the workflow, weights, plan, hosted
// executor or VM map.
func TestServiceKeepsNoSettledState(t *testing.T) {
	svc, err := NewService(Config{Platform: testPlatform(3600), Policy: testPolicy(), TimeToShutdown: 360})
	if err != nil {
		t.Fatal(err)
	}
	states := map[string]int{}
	for i := 0; i < 8; i++ {
		w, err := wfgen.Generate(wfgen.Chain, 6, uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		// Tenant c's budget is spent by its first submission: the
		// later ones are rejected.
		o, err := svc.Submit(context.Background(), Submission{
			Tenant:    TenantSpec{ID: []string{"a", "b", "c"}[i%3], Budget: []float64{0, 0, 1e-12}[i%3]},
			Workflow:  w,
			Algorithm: "heft",
		})
		if err != nil {
			t.Fatal(err)
		}
		states[o.State]++
	}
	if n := len(svc.p.decisions); n != 0 {
		t.Errorf("service holds %d decisions, want none", n)
	}
	for _, s := range svc.p.subs {
		if s.w != nil || s.weights != nil || s.schedule != nil || s.hosted != nil || s.vmMap != nil {
			t.Errorf("submission %d (%s) keeps its execution state", s.id, s.outcome.State)
		}
	}
	if states[StateDone] == 0 || states[StateRejected] == 0 {
		t.Errorf("outcomes %v, want done and rejected submissions", states)
	}
}

// hourlyTrace is a 3-tenant × 200-submission trace on an hourly-billed
// platform (hourlyConfig), dense enough that most arrivals find idle
// VMs of the category they need, with caps high enough that nothing is
// rejected.
func hourlyTrace() TraceSpec {
	return TraceSpec{
		Seed: 5,
		Tenants: []TenantTraffic{
			{Tenant: TenantSpec{ID: "astro"}, Rate: 20, Count: 200, WorkflowType: "montage", Tasks: 20, Budget: 5, Algorithm: "heftbudg"},
			{Tenant: TenantSpec{ID: "seismo"}, Rate: 20, Count: 200, WorkflowType: "cybershake", Tasks: 20, Budget: 5, Algorithm: "heftbudg"},
			{Tenant: TenantSpec{ID: "grav"}, Rate: 20, Count: 200, WorkflowType: "ligo", Tasks: 20, Algorithm: "heft"},
		},
	}
}

func hourlyConfig() Config {
	return Config{Platform: testPlatform(3600), Policy: testPolicy(), Seed: 5,
		DefaultMaxVMs: 1024, DefaultMaxQueued: 256}
}

// enqueueTrace builds a pool and enqueues the whole trace without
// running it.
func enqueueTrace(t *testing.T, cfg Config, spec TraceSpec) *Pool {
	t.Helper()
	subs, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range subs {
		if _, err := p.Enqueue(context.Background(), sub); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// checkIdleIndex asserts the idle index invariant: idle[c] holds
// exactly the VMs of p.vms that are idle, not gone and of category c,
// each once, each at its recorded slot.
func checkIdleIndex(t *testing.T, p *Pool) {
	t.Helper()
	want := make([]int, len(p.idle))
	for _, pv := range p.vms {
		if pv.idle && !pv.gone {
			want[pv.cat]++
		}
	}
	for c, list := range p.idle {
		if len(list) != want[c] {
			t.Fatalf("t=%v: idle[%d] holds %d VMs, want %d", p.now, c, len(list), want[c])
		}
		for i, pv := range list {
			if !pv.idle || pv.gone || pv.cat != c || pv.slot != i {
				t.Fatalf("t=%v: idle[%d][%d] is VM %d (idle=%v gone=%v cat=%d slot=%d)",
					p.now, c, i, pv.id, pv.idle, pv.gone, pv.cat, pv.slot)
			}
		}
	}
}

// TestIdleIndexInvariant steps traces one event at a time and checks
// the idle index after every step. It also checks every lease against
// the tie rule: among the VMs of the category idle before the step and
// not yet leased in it, the largest paidUntil wins and, on equal
// paidUntil, the lowest VM id. Every trace has such ties: in testTrace()
// under the hourly quantum, VMs 0 and 1 boot at the same instant.
func TestIdleIndexInvariant(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		spec TraceSpec
	}{
		{"testTrace q3600", Config{Platform: testPlatform(3600), Policy: testPolicy(), Seed: 7}, testTrace()},
		{"testTrace q600", Config{Platform: testPlatform(600), Policy: testPolicy(), Seed: 7}, testTrace()},
		{"hourly 3x200", hourlyConfig(), hourlyTrace()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := enqueueTrace(t, tc.cfg, tc.spec)
			reuses, ties := 0, 0
			for {
				before := make([][]*poolVM, len(p.idle))
				for c, list := range p.idle {
					before[c] = append([]*poolVM(nil), list...)
				}
				logged := len(p.decisions)
				ok, err := p.step()
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
				checkIdleIndex(t, p)
				for _, d := range p.decisions[logged:] {
					if d.Kind != "reuse" {
						continue
					}
					reuses++
					var best *poolVM
					tied := false
					for _, pv := range before[d.Cat] {
						switch {
						case best == nil || pv.paidUntil > best.paidUntil:
							best, tied = pv, false
						case pv.paidUntil == best.paidUntil:
							tied = true
							if pv.id < best.id {
								best = pv
							}
						}
					}
					if best == nil {
						t.Fatalf("%v: no VM of category %d was idle", d, d.Cat)
					}
					if best.id != d.VM {
						t.Fatalf("%v: leased VM %d, want VM %d", d, d.VM, best.id)
					}
					if tied {
						ties++
					}
					for i, pv := range before[d.Cat] {
						if pv == best {
							before[d.Cat] = append(before[d.Cat][:i], before[d.Cat][i+1:]...)
							break
						}
					}
				}
			}
			if reuses == 0 {
				t.Fatal("no lease in the trace")
			}
			if ties == 0 {
				t.Fatal("no lease decided by the paidUntil tie rule")
			}
			for c, list := range p.idle {
				if len(list) != 0 {
					t.Fatalf("idle[%d] holds %d VMs after the drain", c, len(list))
				}
			}
		})
	}
}

// TestClockMonotonic: an event earlier than the clock is an error, but
// float noise on tied instants (1e-12 back) is tolerated and leaves the
// clock where it was.
func TestClockMonotonic(t *testing.T) {
	p, err := New(Config{Platform: testPlatform(3600)})
	if err != nil {
		t.Fatal(err)
	}
	// A deprovision timer of a VM already gone dispatches to nothing.
	noop := pev{kind: pevDeprovision, vm: &poolVM{gone: true}}
	step := func(at float64) error {
		p.events.Push(at, noop)
		ok, err := p.step()
		if !ok && err == nil {
			t.Fatal("step found no event")
		}
		return err
	}
	for _, at := range []float64{10, 10, 10 - 1e-12} {
		if err := step(at); err != nil {
			t.Fatalf("step to %v: %v", at, err)
		}
		if p.Now() != 10 {
			t.Fatalf("after step to %v: Now() = %v, want 10", at, p.Now())
		}
	}
	err = step(9)
	if err == nil || err.Error() != "evloop: time went backwards: 10 -> 9" {
		t.Fatalf("step to 9 after 10: err = %v", err)
	}
}

// maxRunMallocsPerDecision bounds the heap allocations of Pool.Run per
// logged decision on hourlyTrace (9 918 decisions). Run executes every
// hosted workflow, so the count also covers the allocations of
// internal/online and internal/sim, which this package does not
// control. Measured with Go 1.24 on linux/amd64, Run costs 3.04 per
// decision: 1.0 for the note most decisions carry, 1.75 for each
// execution's controller, engine, Report and release list (29 per
// submission, 600 submissions), 0.24 for the hooks and VM map admit
// builds (4 per submission), and the rest for the decision log's
// growth. Queued pool events, leases and billing ticks allocate
// nothing. When every pool event was a heap-allocated pointer, every
// note went through fmt and each VM map was a map, the same run cost
// 9.4 per decision. The ceiling of 4 leaves a third of headroom over
// 3.04 for runtime and toolchain drift and fails any return to
// per-event garbage.
const maxRunMallocsPerDecision = 4.0

// TestPoolRunAllocs is the allocation ceiling of the pool loop.
func TestPoolRunAllocs(t *testing.T) {
	p := enqueueTrace(t, hourlyConfig(), hourlyTrace())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	st := p.Stats()
	if st.Completed != len(p.subs) || st.Reused == 0 {
		t.Fatalf("trace must complete every submission and reuse VMs: %+v", st)
	}
	perDecision := float64(after.Mallocs-before.Mallocs) / float64(len(p.decisions))
	t.Logf("%d decisions, %.2f mallocs per decision", len(p.decisions), perDecision)
	if perDecision > maxRunMallocsPerDecision {
		t.Fatalf("Run allocated %.2f times per decision, ceiling %v", perDecision, maxRunMallocsPerDecision)
	}
}

// BenchmarkRunTrace is one RunTrace of hourlyTrace: generation,
// planning and the pool loop, without rendering the decision log.
func BenchmarkRunTrace(b *testing.B) {
	cfg, spec := hourlyConfig(), hourlyTrace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunTrace(cfg, spec, nil); err != nil {
			b.Fatal(err)
		}
	}
}
