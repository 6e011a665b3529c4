// Package pool implements the multi-tenant online scheduling service:
// a continuously-running executor that accepts a stream of workflow
// submissions from many tenants and schedules them onto a shared VM
// pool, all inside one deterministic event loop: the pool's own clock
// over an internal/evloop.Queue of event values.
//
// The pool exploits the billing-quantum cost model (Platform.
// BillingQuantum, Equation (1) rounded up to whole billing periods):
// when a workflow settles, its VMs are not thrown away — each one has
// paid through the end of its current billing period, so the pool
// parks it idle and leases it to the next submission of any tenant
// that needs the category. A leased VM skips the boot delay and the
// setup fee and is billed only for lifetime *extensions* past the
// already-paid periods (platform.ExtensionCost). An idle VM is
// deprovisioned when the time to its next billing boundary drops
// below the configurable TimeToShutdown threshold — the
// time_to_shutdown_vm idiom of billing-period-aware cloud
// simulators — so a machine nobody claimed never silently rolls into
// a new paid period.
//
// Idle VMs are indexed by category: settlement parks a VM in its
// category's list, and a lease or a deprovision removes it. A booking
// scans only that list and leases the VM with the most paid time left,
// ties going to the lowest VM id.
//
// Every event is dispatched in (virtual time, submission order):
// submissions, task lifecycle events of the hosted executions
// (internal/online's executor, hosted verbatim through
// online.Hosted), billing-boundary ticks, and deprovision timers.
// Determinism is load-bearing: a fixed seed and a fixed submission
// trace reproduce a byte-identical decision sequence, and a single
// submission on an empty pool is bit-identical to online.Execute —
// both pinned by property tests.
//
// Tenancy: every provision, extension and billing boundary is charged
// to the submitting tenant's budget via the executor's existing
// budget guard; per-tenant live accounting, fair-share admission
// (caps on concurrent workflows and VMs per tenant) and rejection
// outcomes surface through internal/server as POST /v1/submit,
// GET /v1/tenants and pool/tenant metrics.
package pool

import (
	"context"
	"fmt"
	"math"

	"budgetwf/internal/evloop"
	"budgetwf/internal/obs"
	"budgetwf/internal/online"
	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/reqerr"
	"budgetwf/internal/rng"
	"budgetwf/internal/sched"
	"budgetwf/internal/sim"
	"budgetwf/internal/wf"
)

// Config parameterizes a Pool. The zero value is usable.
type Config struct {
	// Platform is the shared platform every submission executes on;
	// default platform.Default(). Its BillingQuantum is what makes
	// reuse worthwhile: with continuous billing (quantum 0) a released
	// VM has no paid tail, so nothing ever idles and the pool
	// degenerates to per-workflow private pools.
	Platform *platform.Platform
	// TimeToShutdown is the idle-VM release threshold, in virtual
	// seconds: an idle VM is deprovisioned as soon as the time to its
	// next billing boundary drops below it. Default: 10% of the
	// billing quantum. Setting it ≥ the quantum disables reuse
	// entirely (every released VM is immediately below threshold),
	// which is the private-pool baseline the savings example compares
	// against.
	TimeToShutdown float64
	// DefaultMaxVMs and DefaultMaxQueued are the fair-share admission
	// caps applied to tenants that do not set their own: the maximum
	// concurrently provisioned VMs per tenant, and the maximum
	// concurrently queued-or-running workflows per tenant. Defaults 16
	// and 8.
	DefaultMaxVMs    int
	DefaultMaxQueued int
	// Policy carries the online controller knobs (TimeoutSigma,
	// GainFactor, MaxMigrations) applied to every hosted execution.
	// Budget, Faults and Span are per-submission and ignored here.
	Policy online.Policy
	// Seed drives the pool's weight sampling: submission i with nil
	// Weights realizes sim.SampleWeights under Split(i) of this seed.
	Seed uint64
}

func (c Config) withDefaults() (Config, error) {
	if c.Platform == nil {
		c.Platform = platform.Default()
	}
	if err := c.Platform.Validate(); err != nil {
		return c, err
	}
	if c.Platform.DCBandwidth > 0 {
		return c, fmt.Errorf("pool: datacenter contention mode is not supported")
	}
	if math.IsNaN(c.TimeToShutdown) || math.IsInf(c.TimeToShutdown, 0) || c.TimeToShutdown < 0 {
		return c, reqerr.Invalid("timeToShutdown", "must be a finite non-negative duration, got %v", c.TimeToShutdown)
	}
	if c.TimeToShutdown == 0 {
		c.TimeToShutdown = 0.1 * c.Platform.BillingQuantum
	}
	if c.DefaultMaxVMs <= 0 {
		c.DefaultMaxVMs = 16
	}
	if c.DefaultMaxQueued <= 0 {
		c.DefaultMaxQueued = 8
	}
	return c, nil
}

// Submission is one workflow arrival.
type Submission struct {
	// At is the virtual arrival instant; arrivals before the pool's
	// frontier are clamped to it.
	At float64
	// Tenant identifies and (on first sight) registers the submitting
	// tenant.
	Tenant TenantSpec
	// Workflow is the DAG to execute.
	Workflow *wf.Workflow
	// Algorithm names the planning algorithm (sched registry).
	Algorithm string
	// Budget is the per-workflow budget B_ini; 0 lifts the guard
	// (subject to the tenant-level budget, which still applies).
	Budget float64
	// Weights, when non-nil, fixes the realized task weights; nil
	// samples them deterministically from the pool seed and the
	// submission index.
	Weights []float64
	// Span, when non-nil, receives the submission's scheduling
	// lifecycle events (provision/reuse/release/deprovision decisions
	// and the executor's migration trace).
	Span *obs.Span
}

// Submission outcome states.
const (
	StateQueued   = "queued"
	StateRejected = "rejected"
	StateDone     = "done"
	StateFailed   = "failed"
)

// Outcome is the (mutable until settled) result of one submission.
type Outcome struct {
	SubID  int            `json:"subId"`
	Tenant string         `json:"tenant"`
	State  string         `json:"state"`
	Reason string         `json:"reason,omitempty"`
	Report *online.Report `json:"report,omitempty"`
	// FreshVMs and ReusedVMs count the execution's provisions by kind;
	// SavedInitCost is the setup fees reuse avoided; Charged is the
	// authoritative amount billed to the tenant at settlement.
	FreshVMs      int     `json:"freshVMs"`
	ReusedVMs     int     `json:"reusedVMs"`
	SavedInitCost float64 `json:"savedInitCost"`
	Charged       float64 `json:"charged"`
	ArrivedAt     float64 `json:"arrivedAt"`
	SettledAt     float64 `json:"settledAt"`
}

// pevKind enumerates the pool's event kinds.
type pevKind int

const (
	pevSubmit pevKind = iota
	pevExec
	pevBilling
	pevDeprovision
)

// pev is one pool-loop event, queued by value: its instant and tie-break
// sequence live in the queue's heap slot.
type pev struct {
	kind  pevKind
	sub   *submission
	ev    online.Ev // pevExec
	vm    *poolVM   // pevBilling, pevDeprovision
	epoch int       // staleness guard for VM timers
}

// poolVM is one shared-pool VM, across all the executions it serves.
type poolVM struct {
	id  int
	cat int
	// tenant is the current billing owner: the tenant whose execution
	// provisioned or last leased it. The owner pays extensions while
	// the VM is held and eats the idle waste of its paid tail.
	tenant string
	// boot is the absolute instant the VM's original boot completed:
	// all billing ages are measured from it.
	boot float64
	// paidUntil is the absolute end of the last billing period the
	// owner's settlement paid for (maintained while idle).
	paidUntil float64
	idleFrom  float64
	// idle marks membership of the pool's idle index; slot is the VM's
	// position in its category's list while idle.
	idle bool
	slot int
	gone bool
	// epoch invalidates in-flight billing/deprovision timers whenever
	// the VM changes hands (lease, release, deprovision).
	epoch  int
	holder *submission
	execVM int
}

// submission is the pool-side record of one arrival.
type submission struct {
	id       int
	tenant   *tenant
	w        *wf.Workflow
	alg      sched.Name
	budget   float64
	weights  []float64
	schedule *plan.Schedule
	span     *obs.Span

	offset       float64 // arrival instant: execution-relative 0
	hosted       *online.Hosted
	vmMap        []*poolVM // executor VM index → pool VM (nil until booked)
	pendingLease *poolVM
	liveAccrued  float64
	outcome      *Outcome
}

// Pool is the multi-tenant shared-pool scheduler. Not safe for
// concurrent use — Service adds the locking the HTTP layer needs.
type Pool struct {
	cfg  Config
	plat *platform.Platform
	seed *rng.RNG

	now    float64 // virtual clock: the instant of the last dispatched event
	events evloop.Queue[pev]
	subs   []*submission
	vms    []*poolVM
	// idle indexes the leasable VMs by category: exactly the VMs with
	// idle set (idle VMs are never gone), in no particular order.
	idle    [][]*poolVM
	tenants map[string]*tenant
	order   []string // tenant registration order, for deterministic listing

	decisions []Decision
	// noLog keeps the decision log empty: a long-running service would
	// otherwise hold every decision it ever made.
	noLog bool

	provisioned   int
	reused        int
	deprovisioned int
	extensions    int
	savedInit     float64
	idleWaste     float64
	billedTotal   float64
}

// New builds an empty pool.
func New(cfg Config) (*Pool, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &Pool{
		cfg:     cfg,
		plat:    cfg.Platform,
		seed:    rng.New(cfg.Seed),
		idle:    make([][]*poolVM, len(cfg.Platform.Categories)),
		tenants: make(map[string]*tenant),
	}, nil
}

// Now returns the pool's virtual-time frontier.
func (p *Pool) Now() float64 { return p.now }

// Decisions returns the scheduling-decision log so far.
func (p *Pool) Decisions() []Decision { return p.decisions }

func (p *Pool) decide(d Decision) {
	if p.noLog {
		return
	}
	d.At = p.now
	p.decisions = append(p.decisions, d)
}

// Enqueue validates and plans a submission and schedules its arrival.
// Validation and planning errors are returned immediately (and
// classified, as *reqerr.Error: scalar-domain violations name their
// field, unusable specs are Semantic); admission verdicts — fair-share
// caps, exhausted tenant budgets — are Outcome rejections decided at
// the arrival instant, not errors.
func (p *Pool) Enqueue(ctx context.Context, sub Submission) (*Outcome, error) {
	if sub.Workflow == nil {
		return nil, reqerr.Unusable("", "missing workflow")
	}
	if math.IsNaN(sub.At) || math.IsInf(sub.At, 0) || sub.At < 0 {
		return nil, reqerr.Invalid("at", "must be a finite non-negative instant, got %v", sub.At)
	}
	if err := checkBudgetField("budget", sub.Budget); err != nil {
		return nil, err
	}
	if sub.Weights != nil {
		if len(sub.Weights) != sub.Workflow.NumTasks() {
			return nil, reqerr.Invalid("weights", "%d weights for %d tasks", len(sub.Weights), sub.Workflow.NumTasks())
		}
		for i, wt := range sub.Weights {
			if wt <= 0 || math.IsNaN(wt) || math.IsInf(wt, 0) {
				return nil, reqerr.Invalid("weights", "task %d has invalid weight %v", i, wt)
			}
		}
	}
	ten, err := p.registerTenant(sub.Tenant)
	if err != nil {
		return nil, err
	}
	alg, err := sched.ByName(sched.Name(sub.Algorithm))
	if err != nil {
		return nil, reqerr.Unusable("", "%v", err)
	}
	// The pool plans directly — never through the server's plan cache:
	// a cached plan's estimates assume a private pool of fresh VMs,
	// and the shared pool's available-VM set differs per arrival (see
	// the cache-bypass test in internal/server).
	schedule, err := sched.PlanContext(ctx, alg.Name, sub.Workflow, p.plat, sub.Budget)
	if err != nil {
		return nil, reqerr.Unusable("", "%v", err)
	}
	id := len(p.subs)
	weights := sub.Weights
	if weights == nil {
		weights = sim.SampleWeights(sub.Workflow, p.seed.Split(uint64(id)))
	}
	at := sub.At
	if at < p.now {
		at = p.now
	}
	s := &submission{
		id: id, tenant: ten, w: sub.Workflow, alg: alg.Name,
		budget: sub.Budget, weights: weights, schedule: schedule,
		span: sub.Span,
		outcome: &Outcome{
			SubID: id, Tenant: ten.id, State: StateQueued, ArrivedAt: at,
		},
	}
	p.subs = append(p.subs, s)
	ten.submissions++
	p.events.Push(at, pev{kind: pevSubmit, sub: s})
	return s.outcome, nil
}

// step dispatches one event; ok is false when the loop is empty. An
// event earlier than the clock (beyond a small absolute tolerance for
// float noise on tied instants) is a corrupted heap or a mis-timed
// push, never a legal schedule: it fails loudly.
func (p *Pool) step() (ok bool, err error) {
	at, ev, ok := p.events.Pop()
	if !ok {
		return false, nil
	}
	if at < p.now-1e-9 {
		return false, fmt.Errorf("evloop: time went backwards: %v -> %v", p.now, at)
	}
	if at > p.now {
		p.now = at
	}
	p.dispatch(at, &ev)
	return true, nil
}

// Run drains the loop completely: every enqueued submission reaches a
// terminal state (settled, rejected or failed) and every idle VM's
// deprovision timer fires.
func (p *Pool) Run() error {
	for {
		ok, err := p.step()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
	}
	p.failUnsettled()
	return nil
}

// RunUntil drains events in order until the given outcome reaches a
// terminal state. Events scheduled past that instant stay queued for
// the next drain, so interleaved service-mode submissions observe the
// same loop a batch run would.
func (p *Pool) RunUntil(o *Outcome) error {
	for o.State == StateQueued {
		ok, err := p.step()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
	}
	if o.State == StateQueued {
		s := p.subs[o.SubID]
		p.failSub(s, fmt.Errorf("pool: deadlock: submission %d stalled with no pending events", o.SubID))
	}
	return nil
}

// failUnsettled fails any submission still live when the loop drains
// dry (an executor deadlock; impossible for well-formed schedules).
func (p *Pool) failUnsettled() {
	for _, s := range p.subs {
		if s.outcome.State == StateQueued {
			p.failSub(s, fmt.Errorf("pool: deadlock: submission %d stalled with no pending events", s.id))
		}
	}
}

func (p *Pool) dispatch(at float64, ev *pev) {
	switch ev.kind {
	case pevSubmit:
		p.admit(ev.sub)
	case pevExec:
		s := ev.sub
		if s.hosted == nil || s.outcome.State != StateQueued {
			return // the submission already failed or was rejected
		}
		if err := s.hosted.Step(ev.ev); err != nil {
			p.failSub(s, err)
			return
		}
		if s.hosted.Settled() {
			p.settle(s)
		}
	case pevBilling:
		p.billingBoundary(at, ev)
	case pevDeprovision:
		pv := ev.vm
		if pv.gone || !pv.idle || ev.epoch != pv.epoch {
			return // leased or already gone; the timer is stale
		}
		p.deprovision(pv)
	}
}

// admit applies fair-share admission at the arrival instant and, when
// the submission passes, starts its hosted execution.
func (p *Pool) admit(s *submission) {
	ten := s.tenant
	if ten.active >= ten.maxQueued {
		p.reject(s, fmt.Sprintf("tenant %s at its concurrent-workflow cap (%d)", ten.id, ten.maxQueued))
		return
	}
	if ten.budget > 0 && ten.billed >= ten.budget {
		p.reject(s, fmt.Sprintf("tenant %s budget exhausted (%.6g of %.6g spent)", ten.id, ten.billed, ten.budget))
		return
	}
	if need := s.schedule.NumVMs(); ten.activeVMs+need > ten.maxVMs {
		p.reject(s, fmt.Sprintf("tenant %s would exceed its VM cap (%d active + %d planned > %d)", ten.id, ten.activeVMs, need, ten.maxVMs))
		return
	}
	s.vmMap = make([]*poolVM, 0, s.schedule.NumVMs())
	pol := p.cfg.Policy
	pol.Faults = nil
	pol.Span = s.span
	pol.Budget = p.effectiveBudget(s)
	h, err := online.NewHosted(s.w, p.plat, s.schedule, s.weights, pol, online.HostHooks{
		Emit: func(at float64, ev online.Ev) {
			p.events.Push(at+s.offset, pev{kind: pevExec, sub: s, ev: ev})
		},
		Acquire: func(cat int, at float64) (online.Lease, bool) {
			return p.acquireFor(s, cat, at+s.offset)
		},
		OnProvision: func(at float64, vm, cat int, leased bool, bootDone float64) {
			p.onProvision(s, at, vm, cat, leased, bootDone)
		},
	})
	if err != nil {
		p.failSub(s, err)
		return
	}
	s.offset = p.now
	s.hosted = h
	ten.active++
	p.decide(Decision{
		Kind: "submit", Tenant: ten.id, Sub: s.id, VM: -1, Cat: -1,
		Amount: s.budget,
		Note:   submitNote(s.alg, s.w.NumTasks(), s.schedule.NumVMs()),
	})
	if s.span != nil {
		s.span.Event("pool-admit", obs.Int("sub", s.id), obs.Str("tenant", ten.id),
			obs.Float("at", p.now))
	}
	h.Start()
	if h.Settled() {
		p.settle(s)
	}
}

// effectiveBudget tightens the per-workflow budget by the tenant's
// remaining pot, so the executor's budget guard protects both.
func (p *Pool) effectiveBudget(s *submission) float64 {
	eff := s.budget
	if ten := s.tenant; ten.budget > 0 {
		remaining := ten.budget - ten.billed
		if eff == 0 || remaining < eff {
			eff = remaining
		}
	}
	return eff
}

func (p *Pool) reject(s *submission, reason string) {
	s.outcome.State = StateRejected
	s.outcome.Reason = reason
	s.tenant.rejected++
	p.decide(Decision{Kind: "reject", Tenant: s.tenant.id, Sub: s.id, VM: -1, Cat: -1, Note: reason})
	if s.span != nil {
		s.span.Event("pool-reject", obs.Int("sub", s.id), obs.Str("reason", reason))
	}
	s.release()
}

func (p *Pool) failSub(s *submission, err error) {
	s.outcome.State = StateFailed
	s.outcome.Reason = err.Error()
	s.outcome.SettledAt = p.now
	ten := s.tenant
	if s.hosted != nil {
		ten.active--
	}
	ten.failed++
	// Force-release the submission's VMs: nothing returns to the idle
	// set from a failed execution (its billing state is unknown).
	for _, pv := range s.vmMap {
		if pv != nil && !pv.gone {
			if pv.idle {
				p.unpark(pv)
			}
			pv.gone = true
			pv.epoch++
			pv.holder = nil
			ten.activeVMs--
			p.deprovisioned++
		}
	}
	p.decide(Decision{Kind: "abort", Tenant: ten.id, Sub: s.id, VM: -1, Cat: -1, Note: err.Error()})
	s.release()
}

// acquireFor serves the hosted executor's booking hook: lease the idle
// VM of the requested category with the most remaining paid time. It
// scans only that category's idle index, whose order is arbitrary, so
// the tie rule is explicit: the largest paidUntil wins, and on equal
// paidUntil the lowest VM id.
func (p *Pool) acquireFor(s *submission, cat int, now float64) (online.Lease, bool) {
	var best *poolVM
	for _, pv := range p.idle[cat] {
		if best == nil || pv.paidUntil > best.paidUntil ||
			(pv.paidUntil == best.paidUntil && pv.id < best.id) {
			best = pv
		}
	}
	if best == nil {
		return online.Lease{}, false
	}
	p.unpark(best)
	best.epoch++
	// The idle gap [idleFrom, now] was paid by the previous owner and
	// produced nothing: their waste, not the new holder's.
	if gap := now - best.idleFrom; gap > 0 {
		p.tenants[best.tenant].idleWaste += gap
		p.idleWaste += gap
	}
	prev := best.tenant
	best.tenant = s.tenant.id
	best.holder = s
	s.pendingLease = best
	p.decide(Decision{
		Kind: "reuse", Tenant: s.tenant.id, Sub: s.id, VM: best.id, Cat: cat,
		Amount: p.plat.Categories[cat].InitCost,
		Note:   reuseNote(prev, now-best.boot, best.paidUntil),
	})
	if s.span != nil {
		s.span.Event("pool-reuse", obs.Int("vm", best.id), obs.Int("cat", cat),
			obs.Str("from", prev), obs.Float("at", now))
	}
	return online.Lease{Age: now - best.boot}, true
}

// onProvision observes every booking of a hosted execution, fresh or
// leased, and wires the pool-side accounting.
func (p *Pool) onProvision(s *submission, at float64, vmIdx, cat int, leased bool, bootDone float64) {
	ten := s.tenant
	ten.activeVMs++
	if leased {
		pv := s.pendingLease
		s.pendingLease = nil
		pv.execVM = vmIdx
		s.mapVM(vmIdx, pv)
		ten.reusedVMs++
		s.outcome.ReusedVMs++
		saved := p.plat.Categories[cat].InitCost
		ten.savedInit += saved
		s.outcome.SavedInitCost += saved
		p.savedInit += saved
		p.reused++
		p.scheduleBilling(pv)
		return
	}
	pv := &poolVM{
		id: len(p.vms), cat: cat, tenant: ten.id,
		boot: bootDone + s.offset, holder: s, execVM: vmIdx,
	}
	p.vms = append(p.vms, pv)
	s.mapVM(vmIdx, pv)
	ten.freshVMs++
	s.outcome.FreshVMs++
	p.provisioned++
	// Live estimate: setup fee plus the first billing unit; settled
	// authoritatively when the execution's Report lands.
	est := p.plat.Categories[cat].InitCost
	if q := p.plat.BillingQuantum; q > 0 {
		est += q * p.plat.Categories[cat].CostPerSec
	}
	ten.liveSpend += est
	s.liveAccrued += est
	p.decide(Decision{
		Kind: "provision", Tenant: ten.id, Sub: s.id, VM: pv.id, Cat: cat,
		Amount: est, Note: floatNote("bootDone=", pv.boot),
	})
	if s.span != nil {
		s.span.Event("pool-provision", obs.Int("vm", pv.id), obs.Int("cat", cat),
			obs.Float("at", at+s.offset))
	}
	p.scheduleBilling(pv)
}

// scheduleBilling arms the VM's next billing-boundary tick (the live
// per-tenant spend gauge; settlement remains authoritative).
func (p *Pool) scheduleBilling(pv *poolVM) {
	q := p.plat.BillingQuantum
	if q <= 0 {
		return
	}
	now := p.now
	next := pv.boot + q
	if now > pv.boot {
		periods := math.Floor((now-pv.boot)/q) + 1
		next = pv.boot + periods*q
	}
	p.events.Push(next, pev{kind: pevBilling, vm: pv, epoch: pv.epoch})
}

// billingBoundary charges one billing unit of live spend to the VM's
// current owner and re-arms the tick while the VM is held.
func (p *Pool) billingBoundary(at float64, ev *pev) {
	pv := ev.vm
	if pv.gone || pv.idle || ev.epoch != pv.epoch || pv.holder == nil {
		return
	}
	q := p.plat.BillingQuantum
	amt := q * p.plat.Categories[pv.cat].CostPerSec
	ten := p.tenants[pv.tenant]
	ten.liveSpend += amt
	pv.holder.liveAccrued += amt
	p.extensions++
	p.decide(Decision{
		Kind: "billing", Tenant: pv.tenant, Sub: pv.holder.id, VM: pv.id, Cat: pv.cat,
		Amount: amt,
	})
	p.events.Push(at+q, pev{kind: pevBilling, vm: pv, epoch: pv.epoch})
}

// settle finishes a hosted execution: collect its Report, charge the
// tenant the authoritative amount, and return its VMs to the pool —
// idle within their paid billing period, deprovisioned when the time
// to the next boundary is already below TimeToShutdown.
func (p *Pool) settle(s *submission) {
	rep := s.hosted.Finish()
	now := p.now
	ten := s.tenant
	for _, rel := range s.hosted.Releases() {
		pv := s.vmMap[rel.VM]
		if pv == nil || pv.gone {
			continue
		}
		pv.epoch++ // kill the held-VM billing chain
		pv.holder = nil
		pv.paidUntil = pv.boot + p.plat.PaidHorizon(rel.AgeAtEnd)
		pv.idleFrom = rel.End + s.offset
		ten.activeVMs--
		remaining := pv.paidUntil - now
		if p.plat.BillingQuantum <= 0 || remaining <= p.cfg.TimeToShutdown {
			p.deprovision(pv)
			continue
		}
		p.park(pv)
		p.decide(Decision{
			Kind: "release", Tenant: pv.tenant, Sub: s.id, VM: pv.id, Cat: pv.cat,
			Amount: remaining, Note: floatNote("paidUntil=", pv.paidUntil),
		})
		p.events.Push(pv.paidUntil-p.cfg.TimeToShutdown, pev{kind: pevDeprovision, vm: pv, epoch: pv.epoch})
	}
	ten.active--
	ten.billed += rep.TotalCost
	ten.liveSpend -= s.liveAccrued
	if ten.liveSpend < 0 {
		ten.liveSpend = 0
	}
	ten.completed++
	p.billedTotal += rep.TotalCost
	o := s.outcome
	o.State = StateDone
	o.Report = rep
	o.Charged = rep.TotalCost
	o.SettledAt = now
	p.decide(Decision{
		Kind: "settle", Tenant: ten.id, Sub: s.id, VM: -1, Cat: -1,
		Amount: rep.TotalCost,
		Note:   settleNote(rep.Makespan, rep.NumVMs, o.ReusedVMs, rep.Completed),
	})
	if s.span != nil {
		s.span.Set(obs.Float("charged", rep.TotalCost), obs.Int("reusedVMs", o.ReusedVMs),
			obs.Int("freshVMs", o.FreshVMs), obs.Float("savedInitCost", o.SavedInitCost))
	}
	s.release()
}

// release drops what only a live execution needs — the workflow, its
// weights and plan, the hosted executor and its VM map — once the
// submission has reached a terminal state: the pool keeps every
// submission's record, so a long-running service would otherwise keep
// all of them reachable.
func (s *submission) release() {
	s.w, s.weights, s.schedule, s.hosted, s.vmMap = nil, nil, nil, nil, nil
}

// deprovision releases a VM for good; the unused remainder of its paid
// tail is idle waste attributed to the tenant that paid for it.
func (p *Pool) deprovision(pv *poolVM) {
	waste := pv.paidUntil - pv.idleFrom
	if waste < 0 {
		waste = 0
	}
	if pv.idle {
		// The stretch already elapsed idle is accounted here; the
		// remainder of the paid tail is forfeited on shutdown.
		waste = pv.paidUntil - p.now
		if gap := p.now - pv.idleFrom; gap > 0 {
			p.tenants[pv.tenant].idleWaste += gap
			p.idleWaste += gap
		}
		if waste < 0 {
			waste = 0
		}
		p.unpark(pv)
	}
	pv.gone = true
	pv.epoch++
	pv.holder = nil
	p.tenants[pv.tenant].idleWaste += waste
	p.idleWaste += waste
	p.deprovisioned++
	p.decide(Decision{
		Kind: "deprovision", Tenant: pv.tenant, Sub: -1, VM: pv.id, Cat: pv.cat,
		Amount: waste, Note: floatNote("paidUntil=", pv.paidUntil),
	})
}

// park adds a released VM to its category's idle index.
func (p *Pool) park(pv *poolVM) {
	pv.idle = true
	pv.slot = len(p.idle[pv.cat])
	p.idle[pv.cat] = append(p.idle[pv.cat], pv)
}

// unpark removes an idle VM from its category's idle index: the last
// entry takes its slot.
func (p *Pool) unpark(pv *poolVM) {
	list := p.idle[pv.cat]
	last := list[len(list)-1]
	list[pv.slot] = last
	last.slot = pv.slot
	list[len(list)-1] = nil
	p.idle[pv.cat] = list[:len(list)-1]
	pv.idle = false
}

// mapVM records that executor VM vmIdx of s is pool VM pv.
func (s *submission) mapVM(vmIdx int, pv *poolVM) {
	for len(s.vmMap) <= vmIdx {
		s.vmMap = append(s.vmMap, nil)
	}
	s.vmMap[vmIdx] = pv
}

// checkBudgetField rejects budgets outside the field's domain.
func checkBudgetField(field string, b float64) error {
	if b < 0 || math.IsNaN(b) || math.IsInf(b, 0) {
		return reqerr.Invalid(field, "must be a finite non-negative amount, got %v", b)
	}
	return nil
}
