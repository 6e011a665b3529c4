package pool

import (
	"math"

	"budgetwf/internal/reqerr"
)

// TenantSpec identifies and configures a tenant. The first submission
// naming a tenant registers it; later submissions may leave every
// limit zero (inherit the registered values) but must not contradict
// them.
type TenantSpec struct {
	// ID names the tenant; required, and unique across the pool.
	ID string `json:"id"`
	// Budget is the tenant-level budget across all its submissions;
	// 0 means unlimited. Once the billed total reaches it, further
	// submissions are rejected and running executions lose their
	// remaining headroom (the executor's budget guard is armed with
	// min(workflow budget, tenant remaining)).
	Budget float64 `json:"budget,omitempty"`
	// MaxVMs caps the tenant's concurrently provisioned VMs
	// (fair-share admission); 0 inherits Config.DefaultMaxVMs.
	MaxVMs int `json:"maxVMs,omitempty"`
	// MaxQueued caps the tenant's concurrently queued-or-running
	// workflows; 0 inherits Config.DefaultMaxQueued.
	MaxQueued int `json:"maxQueued,omitempty"`
}

// Validate classifies scalar-domain violations field by field.
func (t TenantSpec) Validate() error {
	if t.ID == "" {
		return reqerr.Invalid("tenant.id", "required")
	}
	if err := checkBudgetField("tenant.budget", t.Budget); err != nil {
		return err
	}
	if t.MaxVMs < 0 {
		return reqerr.Invalid("tenant.maxVMs", "must be non-negative, got %d", t.MaxVMs)
	}
	if t.MaxQueued < 0 {
		return reqerr.Invalid("tenant.maxQueued", "must be non-negative, got %d", t.MaxQueued)
	}
	return nil
}

// tenant is the pool-side ledger of one tenant.
type tenant struct {
	id        string
	budget    float64
	maxVMs    int
	maxQueued int

	active      int // queued-or-running submissions
	submissions int
	completed   int
	rejected    int
	failed      int

	activeVMs int
	freshVMs  int
	reusedVMs int

	billed    float64 // authoritative, from settled Reports
	liveSpend float64 // running estimate for in-flight executions
	savedInit float64
	idleWaste float64
}

// registerTenant validates the spec and returns the (possibly new)
// tenant ledger. Re-registration with conflicting limits is a
// semantic error: tenant IDs are unique.
func (p *Pool) registerTenant(spec TenantSpec) (*tenant, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if ten, ok := p.tenants[spec.ID]; ok {
		if (spec.Budget != 0 && spec.Budget != ten.budget) ||
			(spec.MaxVMs != 0 && spec.MaxVMs != ten.maxVMs) ||
			(spec.MaxQueued != 0 && spec.MaxQueued != ten.maxQueued) {
			return nil, reqerr.Unusable("",
				"tenant %q already registered with different limits (budget=%v maxVMs=%d maxQueued=%d)",
				spec.ID, ten.budget, ten.maxVMs, ten.maxQueued)
		}
		return ten, nil
	}
	ten := &tenant{
		id:        spec.ID,
		budget:    spec.Budget,
		maxVMs:    spec.MaxVMs,
		maxQueued: spec.MaxQueued,
	}
	if ten.maxVMs == 0 {
		ten.maxVMs = p.cfg.DefaultMaxVMs
	}
	if ten.maxQueued == 0 {
		ten.maxQueued = p.cfg.DefaultMaxQueued
	}
	p.tenants[spec.ID] = ten
	p.order = append(p.order, spec.ID)
	return ten, nil
}

// TenantView is the externally visible snapshot of one tenant's
// ledger (GET /v1/tenants).
type TenantView struct {
	ID        string  `json:"id"`
	Budget    float64 `json:"budget"`
	Remaining float64 `json:"remaining"` // budget - billed, 0 floor; +Inf sentinel omitted (unlimited = budget 0)
	MaxVMs    int     `json:"maxVMs"`
	MaxQueued int     `json:"maxQueued"`

	Submissions int `json:"submissions"`
	Active      int `json:"active"`
	Completed   int `json:"completed"`
	Rejected    int `json:"rejected"`
	Failed      int `json:"failed"`

	ActiveVMs int `json:"activeVMs"`
	IdleVMs   int `json:"idleVMs"`
	FreshVMs  int `json:"freshVMs"`
	ReusedVMs int `json:"reusedVMs"`

	Billed           float64 `json:"billed"`
	LiveSpend        float64 `json:"liveSpend"`
	SavedInitCost    float64 `json:"savedInitCost"`
	IdleWasteSeconds float64 `json:"idleWasteSeconds"`
}

func (p *Pool) tenantView(ten *tenant) TenantView {
	v := TenantView{
		ID: ten.id, Budget: ten.budget,
		MaxVMs: ten.maxVMs, MaxQueued: ten.maxQueued,
		Submissions: ten.submissions, Active: ten.active,
		Completed: ten.completed, Rejected: ten.rejected, Failed: ten.failed,
		ActiveVMs: ten.activeVMs, FreshVMs: ten.freshVMs, ReusedVMs: ten.reusedVMs,
		Billed: ten.billed, LiveSpend: ten.liveSpend,
		SavedInitCost: ten.savedInit, IdleWasteSeconds: ten.idleWaste,
	}
	if ten.budget > 0 {
		v.Remaining = math.Max(0, ten.budget-ten.billed)
	}
	for _, list := range p.idle {
		for _, pv := range list {
			if pv.tenant == ten.id {
				v.IdleVMs++
			}
		}
	}
	return v
}

// Tenants lists every registered tenant in registration order.
func (p *Pool) Tenants() []TenantView {
	out := make([]TenantView, 0, len(p.order))
	for _, id := range p.order {
		out = append(out, p.tenantView(p.tenants[id]))
	}
	return out
}

// Tenant returns one tenant's snapshot.
func (p *Pool) Tenant(id string) (TenantView, bool) {
	ten, ok := p.tenants[id]
	if !ok {
		return TenantView{}, false
	}
	return p.tenantView(ten), true
}

// Stats is the pool-wide snapshot backing the daemon's gauges.
type Stats struct {
	Now     float64 `json:"now"`
	Tenants int     `json:"tenants"`

	Submissions int `json:"submissions"`
	Completed   int `json:"completed"`
	Rejected    int `json:"rejected"`
	Failed      int `json:"failed"`

	ActiveVMs     int `json:"activeVMs"`
	IdleVMs       int `json:"idleVMs"`
	Provisioned   int `json:"provisioned"`
	Reused        int `json:"reused"`
	Deprovisioned int `json:"deprovisioned"`
	Extensions    int `json:"extensions"`

	BilledTotal      float64 `json:"billedTotal"`
	SavedInitCost    float64 `json:"savedInitCost"`
	IdleWasteSeconds float64 `json:"idleWasteSeconds"`
}

// Stats snapshots the pool.
func (p *Pool) Stats() Stats {
	st := Stats{
		Now: p.now, Tenants: len(p.order),
		Submissions: len(p.subs),
		Provisioned: p.provisioned, Reused: p.reused,
		Deprovisioned: p.deprovisioned, Extensions: p.extensions,
		BilledTotal: p.billedTotal, SavedInitCost: p.savedInit,
		IdleWasteSeconds: p.idleWaste,
	}
	for _, ten := range p.tenants {
		st.Completed += ten.completed
		st.Rejected += ten.rejected
		st.Failed += ten.failed
		st.ActiveVMs += ten.activeVMs
	}
	for _, list := range p.idle {
		st.IdleVMs += len(list)
	}
	return st
}
