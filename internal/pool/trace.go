package pool

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"budgetwf/internal/obs"
	"budgetwf/internal/reqerr"
	"budgetwf/internal/rng"
	"budgetwf/internal/sched"
	"budgetwf/internal/wfgen"
)

// TenantTraffic describes one tenant's synthetic arrival stream: a
// Poisson process of workflow submissions.
type TenantTraffic struct {
	// Tenant registers the tenant (ID required; limits optional).
	Tenant TenantSpec `json:"tenant"`
	// Rate is the mean arrival rate, in workflows per 1000 virtual
	// seconds. Must be positive and finite: zero-rate arrival specs
	// are rejected.
	Rate float64 `json:"rate"`
	// Count is the number of workflows this tenant submits; must be in
	// [1, 10000].
	Count int `json:"count"`
	// WorkflowType is the wfgen family; default "chain".
	WorkflowType string `json:"workflowType,omitempty"`
	// Tasks is the number of tasks per workflow; default 8.
	Tasks int `json:"tasks,omitempty"`
	// Budget is the per-workflow budget; 0 lifts the per-workflow
	// guard (the tenant-level budget still applies).
	Budget float64 `json:"budget,omitempty"`
	// Algorithm names the planning algorithm; default "heft".
	Algorithm string `json:"algorithm,omitempty"`
}

// TraceSpec describes a reproducible multi-tenant submission trace.
type TraceSpec struct {
	// Seed drives both the arrival processes and the generated
	// workflow instances.
	Seed    uint64          `json:"seed"`
	Tenants []TenantTraffic `json:"tenants"`
}

const maxTraceCount = 10000

func (tt TenantTraffic) withDefaults() TenantTraffic {
	if tt.WorkflowType == "" {
		tt.WorkflowType = string(wfgen.Chain)
	}
	if tt.Tasks == 0 {
		tt.Tasks = 8
	}
	if tt.Algorithm == "" {
		tt.Algorithm = string(sched.NameHeft)
	}
	return tt
}

// Validate classifies every defect in the spec (*reqerr.Error):
// scalar-domain violations field by field, then semantic ones such as
// duplicate tenant IDs or unknown families/algorithms.
func (ts TraceSpec) Validate() error {
	if len(ts.Tenants) == 0 {
		return reqerr.Invalid("tenants", "at least one tenant required")
	}
	seen := make(map[string]bool)
	for i, raw := range ts.Tenants {
		tt := raw.withDefaults()
		field := func(name string) string { return fmt.Sprintf("tenants[%d].%s", i, name) }
		if err := tt.Tenant.Validate(); err != nil {
			return reqerr.Under(fmt.Sprintf("tenants[%d]", i), err)
		}
		if tt.Rate <= 0 || math.IsNaN(tt.Rate) || math.IsInf(tt.Rate, 0) {
			return reqerr.Invalid(field("rate"), "must be a positive finite arrival rate, got %v", tt.Rate)
		}
		if tt.Count < 1 || tt.Count > maxTraceCount {
			return reqerr.Invalid(field("count"), "must be in [1, %d], got %d", maxTraceCount, tt.Count)
		}
		if tt.Tasks < 4 {
			return reqerr.Invalid(field("tasks"), "must be at least 4, got %d", tt.Tasks)
		}
		if err := checkBudgetField(field("budget"), tt.Budget); err != nil {
			return err
		}
		if seen[tt.Tenant.ID] {
			return reqerr.Unusable("", "duplicate tenant ID %q in trace", tt.Tenant.ID)
		}
		seen[tt.Tenant.ID] = true
		if _, err := wfgen.ParseType(tt.WorkflowType); err != nil {
			return reqerr.Unusable("", "%v", err)
		}
		if _, err := sched.ByName(sched.Name(tt.Algorithm)); err != nil {
			return reqerr.Unusable("", "%v", err)
		}
	}
	return nil
}

// Generate realizes the trace deterministically: per-tenant Poisson
// inter-arrival times under Split(tenant index) of the seed, workflow
// instances seeded per submission, merged in (time, tenant order,
// index) order. Same spec, same seed, same trace — byte for byte.
func (ts TraceSpec) Generate() ([]Submission, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	base := rng.New(ts.Seed)
	type keyed struct {
		at          float64
		tenant, idx int
		sub         Submission
	}
	total := 0
	for _, raw := range ts.Tenants {
		total += raw.withDefaults().Count
	}
	all := make([]keyed, 0, total)
	for i, raw := range ts.Tenants {
		tt := raw.withDefaults()
		family, _ := wfgen.ParseType(tt.WorkflowType)
		r := base.Split(uint64(i))
		at := 0.0
		for j := 0; j < tt.Count; j++ {
			at += r.ExpFloat64() * 1000 / tt.Rate
			w, err := wfgen.Generate(family, tt.Tasks, ts.Seed^uint64(i)<<32^uint64(j))
			if err != nil {
				return nil, reqerr.Unusable("", "%v", err)
			}
			all = append(all, keyed{at: at, tenant: i, idx: j, sub: Submission{
				At:        at,
				Tenant:    tt.Tenant,
				Workflow:  w,
				Algorithm: tt.Algorithm,
				Budget:    tt.Budget,
			}})
		}
	}
	// The keys are distinct, so any sort gives the one order.
	slices.SortFunc(all, func(a, b keyed) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.tenant, b.tenant), cmp.Compare(a.idx, b.idx))
	})
	out := make([]Submission, len(all))
	for i := range all {
		out[i] = all[i].sub
	}
	return out, nil
}

// TraceResult is the outcome of running a whole trace.
type TraceResult struct {
	Outcomes  []*Outcome   `json:"outcomes"`
	Tenants   []TenantView `json:"tenants"`
	Stats     Stats        `json:"stats"`
	Decisions []Decision   `json:"-"`
}

// RunTrace builds a pool, enqueues the whole trace, and drains it in
// virtual time (submissions genuinely overlap, unlike Service mode).
func RunTrace(cfg Config, spec TraceSpec, span *obs.Span) (*TraceResult, error) {
	subs, err := spec.Generate()
	if err != nil {
		return nil, err
	}
	if cfg.Seed == 0 {
		cfg.Seed = spec.Seed
	}
	return RunSubmissions(cfg, subs, span)
}

// RunSubmissions runs an explicit submission list on a fresh pool.
func RunSubmissions(cfg Config, subs []Submission, span *obs.Span) (*TraceResult, error) {
	p, err := New(cfg)
	if err != nil {
		return nil, err
	}
	outcomes := make([]*Outcome, 0, len(subs))
	for _, sub := range subs {
		if sub.Span == nil {
			sub.Span = span
		}
		o, err := p.Enqueue(context.Background(), sub)
		if err != nil {
			return nil, err
		}
		outcomes = append(outcomes, o)
	}
	if err := p.Run(); err != nil {
		return nil, err
	}
	return &TraceResult{
		Outcomes:  outcomes,
		Tenants:   p.Tenants(),
		Stats:     p.Stats(),
		Decisions: p.Decisions(),
	}, nil
}
