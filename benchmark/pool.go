package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"budgetwf/internal/online"
	"budgetwf/internal/platform"
	"budgetwf/internal/pool"
	"budgetwf/internal/rng"
	"budgetwf/internal/sched"
	"budgetwf/internal/wfgen"
)

// poolWorkload is pool-tenants: the multi-tenant shared VM pool,
// in-process. One op is one pool.RunTrace — three tenants, one per
// paper family, each a Poisson stream of small workflows planned with
// HEFTBUDG onto a platform billed by the hour, so released VMs are
// worth leasing to the next arrival. It is the only workload on
// internal/evloop, the hosted online executor and pool admission and
// billing.
type poolWorkload struct {
	sz   sizes
	cfg  pool.Config
	spec pool.TraceSpec
	ref  string // canonical form of the reference result
	subs int
}

func (p *poolWorkload) setup(e *env) error {
	plat := platform.Default()
	plat.BillingQuantum = 3600
	// The default caps (16 VMs, 8 queued workflows per tenant) reject
	// almost half of this traffic; the benchmark's must reject none.
	p.cfg = pool.Config{Platform: plat, DefaultMaxVMs: 1024, DefaultMaxQueued: 256}
	p.spec = pool.TraceSpec{Seed: itemSeed(e.seed, "pool-tenants", 0)}
	for i, family := range wfgen.AllPaperTypes() {
		// One budget per tenant: the medium budget of a workflow like the
		// ones it will submit (the trace generates them with σ = 0).
		like, err := wfgen.Generate(family, p.sz.poolTasks, p.spec.Seed)
		if err != nil {
			return err
		}
		budget, err := mediumBudget(like, plat)
		if err != nil {
			return err
		}
		p.spec.Tenants = append(p.spec.Tenants, pool.TenantTraffic{
			Tenant:       pool.TenantSpec{ID: fmt.Sprintf("tenant-%d", i)},
			Rate:         20, // workflows per 1000 virtual seconds
			Count:        p.sz.poolPerTen,
			WorkflowType: string(family),
			Tasks:        p.sz.poolTasks,
			Algorithm:    string(sched.NameHeftBudg),
			Budget:       budget,
		})
		p.subs += p.sz.poolPerTen
	}
	// The warm-up run is also the reference.
	res, err := pool.RunTrace(p.cfg, p.spec, nil)
	if err != nil {
		return err
	}
	st := res.Stats
	if st.Rejected != 0 || st.Failed != 0 || st.Completed != p.subs || st.Reused == 0 {
		return fmt.Errorf("pool trace must complete every submission and reuse VMs: %+v", st)
	}
	p.ref = canonicalTrace(res)
	return nil
}

// canonicalTrace renders what a trace run decided: the pool-wide
// counters and the whole decision log. All of it is virtual time; no
// field depends on the wall clock.
func canonicalTrace(res *pool.TraceResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", res.Stats)
	for _, d := range res.Decisions {
		fmt.Fprintln(h, d.String())
	}
	return hex.EncodeToString(h.Sum(nil))
}

func (p *poolWorkload) run(e *env, d time.Duration) (*phase, error) {
	ph := &phase{}
	mem0 := readMem()
	start := time.Now()
	for ph.attempted == 0 || time.Since(start) < d {
		t0 := time.Now()
		res, err := pool.RunTrace(p.cfg, p.spec, nil)
		lat := time.Since(t0)
		ph.attempted++
		if err != nil {
			return nil, err
		}
		if canonicalTrace(res) != p.ref {
			warn("pool-tenants: a trace run differs from the reference")
			ph.failed++
			continue
		}
		ph.latMs = append(ph.latMs, float64(lat)/float64(time.Millisecond))
	}
	ph.wall = time.Since(start)
	ph.mem = readMem().sub(mem0)
	return ph, nil
}

// traced runs the real op once inside a span, then replays its two
// library layers standalone on the same submissions: the planner, and
// the online executor on a private pool of fresh VMs. What the op
// costs beyond them is the pool's: generating the trace, the event
// loop, admission, leasing and billing.
func (p *poolWorkload) traced(e *env, rec *recorder, untraced *phase) (map[string]float64, error) {
	var res *pool.TraceResult
	var err error
	rec.time("pool.run_trace", -1, 0, func() { res, err = pool.RunTrace(p.cfg, p.spec, nil) })
	if err != nil {
		return nil, err
	}
	subs, err := p.spec.Generate()
	if err != nil {
		return nil, err
	}
	root := rec.begin("replay", -1, 1)
	weights := rng.New(p.spec.Seed)
	for i, sub := range subs {
		plan := rec.begin("sched.plan", root, 1)
		schedule, err := sched.PlanContext(context.Background(), sched.Name(sub.Algorithm), sub.Workflow, p.cfg.Platform, sub.Budget)
		rec.end(plan)
		if err != nil {
			return nil, err
		}
		rec.time("online.execute", root, 1, func() {
			_, err = online.ExecuteStochastic(sub.Workflow, p.cfg.Platform, schedule, weights.Split(uint64(i)), p.cfg.Policy)
		})
		if err != nil {
			return nil, err
		}
	}
	rec.end(root)

	opMs := median(untraced.latMs)
	st := res.Stats
	n := float64(st.Submissions)
	planMs := rec.total("sched.plan", time.Millisecond)
	return map[string]float64{
		"pool.submissions_per_s":        ratio(n, opMs/1000),
		"pool.completed_share":          ratio(float64(st.Completed), n),
		"pool.vm_reuse_share":           ratio(float64(st.Reused), float64(st.Reused+st.Provisioned)),
		"pool.decisions_per_submission": ratio(float64(len(res.Decisions)), n),
		"online.execute_us":             rec.medianOf("online.execute", time.Microsecond),
		"sched.share":                   ratio(planMs, opMs),
		"pool.overhead_share":           1 - ratio(planMs+rec.total("online.execute", time.Millisecond), opMs),
		"bench.trace_overhead_share":    ratio(rec.total("pool.run_trace", time.Millisecond), opMs) - 1,
	}, nil
}

func (p *poolWorkload) digest() string { return p.ref }
func (p *poolWorkload) close()         {}
