// Package sched implements the paper's scheduling algorithms — the
// primary contribution of the reproduction:
//
//   - MIN-MIN and HEFT, the classical budget-blind baselines;
//   - MIN-MINBUDG and HEFTBUDG (§IV-A, Algorithms 1–4), their
//     budget-aware extensions;
//   - HEFTBUDG+ and HEFTBUDG+INV (§IV-B, Algorithm 5), the refined
//     variants that spend leftover budget on re-assignments;
//   - BDT and CG/CG+ (§V-D), two previously published budget-aware
//     competitors extended to this application/platform model.
//
// All algorithms plan against conservative task weights w̄+σ and the
// datacenter-mediated communication model; they produce a
// plan.Schedule that internal/sim executes with realized weights.
package sched

import (
	"fmt"
	"math"
	"slices"

	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/wf"
)

// Name identifies an algorithm in the registry.
type Name string

// The nine algorithms evaluated in the paper.
const (
	NameMinMin          Name = "minmin"
	NameHeft            Name = "heft"
	NameMinMinBudg      Name = "minminbudg"
	NameHeftBudg        Name = "heftbudg"
	NameHeftBudgPlus    Name = "heftbudg+"
	NameHeftBudgPlusInv Name = "heftbudg+inv"
	NameBDT             Name = "bdt"
	NameCG              Name = "cg"
	NameCGPlus          Name = "cg+"
)

// Algorithm couples a name with its planning function. Budget-blind
// baselines ignore the budget argument.
type Algorithm struct {
	Name Name
	// NeedsBudget is false for the baselines, which plan as if the
	// budget were unlimited.
	NeedsBudget bool
	// Plan computes a schedule for the workflow on the platform under
	// the given initial budget B_ini.
	Plan func(w *wf.Workflow, p *platform.Platform, budget float64) (*plan.Schedule, error)
	// plan is Plan taking Options — PlanContext's cancellation hook and
	// trace span. Every registry entry carries it; an Algorithm built
	// outside the package sets only Plan and plans without either.
	plan planFunc
}

// planFunc is the form every registered planner is written in.
type planFunc func(w *wf.Workflow, p *platform.Platform, budget float64, opt Options) (*plan.Schedule, error)

// registered builds a registry entry: Plan is fn under zero Options.
func registered(name Name, needsBudget bool, fn planFunc) Algorithm {
	return Algorithm{name, needsBudget, func(w *wf.Workflow, p *platform.Platform, budget float64) (*plan.Schedule, error) {
		return fn(w, p, budget, Options{})
	}, fn}
}

// planOpt plans under opt where the algorithm can honour it.
func (a Algorithm) planOpt(w *wf.Workflow, p *platform.Platform, budget float64, opt Options) (*plan.Schedule, error) {
	if a.plan == nil {
		return a.Plan(w, p, budget)
	}
	return a.plan(w, p, budget, opt)
}

// paper holds the paper's nine algorithms in the paper's order; registry
// adds the extension baselines (PEFT). Both are built once: ByName sits
// on the daemon's request path.
var paper = []Algorithm{
	registered(NameMinMin, false, func(w *wf.Workflow, p *platform.Platform, _ float64, opt Options) (*plan.Schedule, error) {
		return minMinPlan(w, p, nil, opt)
	}),
	registered(NameHeft, false, func(w *wf.Workflow, p *platform.Platform, _ float64, opt Options) (*plan.Schedule, error) {
		return heftPlan(w, p, nil, opt)
	}),
	registered(NameMinMinBudg, true, MinMinBudgOpt),
	registered(NameHeftBudg, true, HeftBudgOpt),
	registered(NameHeftBudgPlus, true, func(w *wf.Workflow, p *platform.Platform, budget float64, opt Options) (*plan.Schedule, error) {
		return refine(w, p, budget, false, opt)
	}),
	registered(NameHeftBudgPlusInv, true, func(w *wf.Workflow, p *platform.Platform, budget float64, opt Options) (*plan.Schedule, error) {
		return refine(w, p, budget, true, opt)
	}),
	registered(NameBDT, true, bdtOpt),
	registered(NameCG, true, cgOpt),
	registered(NameCGPlus, true, cgPlusOpt),
}

var registry = append(All(), registered(NamePeft, false, func(w *wf.Workflow, p *platform.Platform, _ float64, opt Options) (*plan.Schedule, error) {
	return peftOpt(w, p, opt)
}))

// All returns the paper's nine algorithms in the paper's order.
func All() []Algorithm { return append([]Algorithm(nil), paper...) }

// AllExtended returns the paper's nine algorithms plus the extension
// baselines (currently PEFT).
func AllExtended() []Algorithm { return append([]Algorithm(nil), registry...) }

// ByName returns the named algorithm, searching the paper's registry
// and the extension baselines (e.g. PEFT). A "<base>-spot" name
// resolves to the base algorithm's spot-aware variant (see spot.go).
func ByName(n Name) (Algorithm, error) {
	for _, a := range registry {
		if a.Name == n {
			return a, nil
		}
	}
	if base, ok := spotBase(n); ok {
		if a, err := ByName(base); err == nil {
			return SpotVariant(a), nil
		}
	}
	return Algorithm{}, fmt.Errorf("sched: unknown algorithm %q", n)
}

// context precomputes everything the planners share for one
// (workflow, platform) pair.
type context struct {
	w    *wf.Workflow
	p    *platform.Platform
	cons []float64 // conservative weights w̄+σ, indexed by task
	// Cached per-task data: wf accessors return defensive copies, and
	// eval() sits on the planning hot path (n·p calls per plan). pred
	// and succ are capped sub-slices of one shared edge array, in edge
	// order like wf.Pred/wf.Succ; they are read-only.
	tasks []wf.Task // read-only: the workflow's own (TasksView)
	pred  [][]wf.Edge
	succ  [][]wf.Edge
	// meanSpeed caches p.MeanSpeed(), which averages over categories on
	// every call and sits inside the rank computation's estimator.
	meanSpeed float64
}

func newContext(w *wf.Workflow, p *platform.Platform) (*context, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := w.NumTasks()
	adj := make([][]wf.Edge, 2*n)
	ctx := &context{
		w: w, p: p,
		cons:  make([]float64, n),
		tasks: w.TasksView(),
		pred:  adj[:n:n],
		succ:  adj[n:],
	}
	ctx.meanSpeed = p.MeanSpeed()
	// Every edge is stored twice, once as a predecessor and once as a
	// successor: size each task's two windows by its degrees, then fill
	// them in edge order.
	edges := w.EdgesView()
	flat := make([]wf.Edge, 2*len(edges))
	off := 0
	for _, t := range ctx.tasks {
		ctx.cons[t.ID] = t.Weight.Conservative()
		np, ns := w.NumPred(t.ID), w.NumSucc(t.ID)
		ctx.pred[t.ID] = flat[off : off : off+np]
		off += np
		ctx.succ[t.ID] = flat[off : off : off+ns]
		off += ns
	}
	for _, e := range edges {
		ctx.pred[e.To] = append(ctx.pred[e.To], e)
		ctx.succ[e.From] = append(ctx.succ[e.From], e)
	}
	return ctx, nil
}

// execEstimate is the task duration estimator used for HEFT ranks and
// the budget division: conservative weight over the mean speed (§IV-A).
func (c *context) execEstimate(t wf.Task) float64 {
	return t.Weight.Conservative() / c.meanSpeed
}

// commEstimate is the edge duration estimator: payload over the
// VM↔datacenter bandwidth.
func (c *context) commEstimate(e wf.Edge) float64 {
	return e.Size / c.p.Bandwidth
}

// rankOrder returns tasks by decreasing HEFT upward rank.
func (c *context) rankOrder() ([]wf.TaskID, error) {
	ranks, err := c.w.BottomLevels(c.execEstimate, c.commEstimate)
	if err != nil {
		return nil, err
	}
	return wf.RankOrder(ranks), nil
}

// state is the planner's incremental view of a partially built
// schedule: which VMs exist, when each becomes idle, where every
// scheduled task ran and when it finishes (under conservative
// weights). It mirrors the execution semantics of internal/sim so that
// planned EFTs equal deterministically simulated times. Every planner
// assigns tasks in the order of the ListT it hands to extract, so the
// state keeps no per-VM task list.
type state struct {
	ctx    *context
	vms    []vmSt
	taskVM []int
	finish []float64
	// terms holds prepare's per-category terms, one per category.
	terms []catTerms
	// index is the readiness index (index.go); picked is the buffer of
	// hosts.
	index  readiness
	picked []candidate
	// g is prepare's copy of the last prepared task's predecessor edges.
	g gathered
	// walked counts the used-VM placements the selections evaluated, and
	// predEdges the predecessor edges their full evaluations read; a
	// traced plan records both on its span.
	walked, predEdges int
}

// gathered is what prepare(t) reads once of task t's predecessor edges
// for the selections that follow: each edge's producer VM, arrival at
// the datacenter and upload cost (upload's terms, so that a full
// evaluation from them is eval bit for bit); the distinct VMs that run
// a predecessor, in first-edge order, with the bytes each holds (loc);
// and the latest arrival, first, from VM firstVM, and second, the
// latest from any other VM, so that a VM's dcReady is second on firstVM
// and first elsewhere. Its slices live in the state's slabs, sized by
// the largest in-degree.
type gathered struct {
	task          wf.TaskID // t+1 after prepare(t), 0 before any
	from          []int
	arr, cost     []float64
	onVM          []int
	loc           []float64
	first, second float64
	firstVM       int
}

type vmSt struct {
	cat     int
	bookAt  float64
	readyAt float64
	// pred is the VM's place in gathered.onVM when prepare last found
	// it running a predecessor: a hint, which another task's prepare
	// leaves stale (runsPred).
	pred int
	// at is the VM's place in its category's run of the readiness index
	// when a selection last read it or it last moved: a hint, which
	// moves of other VMs leave stale.
	at int
}

// newState returns the empty state of a plan, readiness index included.
// It stays small enough to inline, so that the state itself does not
// escape to the heap: folding alloc into it costs every plan two
// allocations (TestCommittedAllocs).
func newState(ctx *context) *state {
	s := &state{ctx: ctx}
	s.alloc()
	return s
}

// alloc sizes an empty state's buffers. The readiness index and the
// gathered edges share the slabs of taskVM and finish, and the buffer
// of hosts holds the most predecessors a task has, two VMs per
// category and a few ties.
func (s *state) alloc() {
	n, cats := s.ctx.w.NumTasks(), s.ctx.p.NumCategories()
	deg := 0
	for _, p := range s.ctx.pred {
		deg = max(deg, len(p))
	}
	ints, floats := make([]int, 2*n+2*deg+2*cats+1), make([]float64, 2*n+3*deg)
	s.taskVM, s.finish = carve(&ints, n), carve(&floats, n)
	s.g = gathered{from: carve(&ints, deg)[:0], onVM: carve(&ints, deg)[:0],
		arr: carve(&floats, deg)[:0], cost: carve(&floats, deg)[:0], loc: carve(&floats, deg)[:0]}
	s.index = readiness{vms: carve(&ints, n), split: carve(&ints, cats), at: floats, bounds: ints}
	s.picked = make([]candidate, 0, deg+2*cats+8)
	s.terms = make([]catTerms, cats)
	for i := range s.taskVM {
		s.taskVM[i] = plan.Unassigned
	}
}

// carve cuts the next l values off the front of a slab.
func carve[T any](slab *[]T, l int) []T {
	head := (*slab)[:l:l]
	*slab = (*slab)[l:]
	return head
}

// candidate is one (task, host) placement option with its planner
// metrics: EFT per Equation (7) and total charged cost ct.
type candidate struct {
	vm    int // index into state.vms, or -1 for a fresh VM
	cat   int // category of the (possibly fresh) VM
	begin float64
	eft   float64
	cost  float64
}

// infinite is the allowance used by budget-blind baselines.
var infinite = math.Inf(1)

// taskInputs is what a placement of task t reads from its
// predecessors, given which of them ran on the host: the bytes to stage
// (external inputs plus every edge whose producer ran elsewhere), when
// the last of those reaches the datacenter, and the producers' upload
// cost. A host that runs no predecessor of t — a fresh VM, or any used
// VM outside the at most deg(t) that do — sees the same inputs, so
// state.inputs(t, -1) serves all of them.
type taskInputs struct {
	missing, dcReady, srcCost float64
}

// catTerms is the part of a placement of task t that depends only on
// its inputs and the host's category: the staging and compute time
// (with the staging flow's latency when anything is staged), the
// category's price per second, and the final upload's cost.
type catTerms struct {
	work, chost, out float64
}

// eval computes the candidate metrics for running task t on an
// existing VM (vmIdx ≥ 0) or on a fresh VM of category cat (vmIdx < 0),
// following Equation (7):
//
//	t_exec = δ_new·t_boot + (w̄_t+σ_t)/s_host + size(d_in,t)/bw
//	EFT    = t_begin + t_exec
//
// where d_in,t is the input data not already on the host (external
// inputs plus edges whose producer ran elsewhere) and t_begin is the
// max of the host's availability and of the arrival at the datacenter
// of every such input.
//
// The charged cost ct is the increase of C_wf (Equations (1)–(2),
// minus the pre-reserved parts) that the placement causes:
//
//	ct = (EFT − avail_host)·c_h,host                     (lifetime extension,
//	                                                      idle gaps included,
//	                                                      boot uncharged)
//	   + Σ_cross (size(e)/bw)·c_h,vm(e.From)             (producer upload)
//	   + (ExternalOut_t/bw)·c_h,host                     (final upload)
//
// The paper only says transfers' costs are "added to
// t_Exec,T,host × c_host"; charging the full lifetime extension rather
// than active time alone is the conservative interpretation — per
// Equation (1) a VM is billed from H_start,v to H_end,v, so an idle
// gap opened while waiting for data is real money, and ignoring it
// systematically breaks the budget the paper reports as respected.
//
// eval composes three steps: the O(deg) predecessor pass (inputs), the
// per-category terms (catTerms), and O(1) arithmetic on the host (onVM,
// placeFresh). A planner that enumerates hosts runs the first two once
// per task (prepare) and places each used VM with place: every VM that
// runs no predecessor of t from prepare's results, bit-identical to
// eval by construction; only the at most deg(t) VMs that do run one
// take a full eval, over the edges prepare gathered.
func (s *state) eval(t wf.TaskID, vmIdx, cat int) candidate {
	in := s.inputs(t, vmIdx)
	k := s.catTerms(t, in, cat)
	if vmIdx < 0 {
		return s.placeFresh(in, k, cat)
	}
	begin, eft, cost := s.onVM(in, k, vmIdx)
	return candidate{vm: vmIdx, cat: cat, begin: begin, eft: eft, cost: cost}
}

// inputs is eval's predecessor pass for task t on VM vmIdx, or on a
// fresh VM when vmIdx < 0. After prepare(t) it reads the gathered
// edges; otherwise it walks t's predecessor edges.
func (s *state) inputs(t wf.TaskID, vmIdx int) taskInputs {
	in := taskInputs{missing: s.ctx.tasks[t].ExternalIn}
	if g := &s.g; g.task == t+1 {
		pred, arr, cost := s.ctx.pred[t][:len(g.from)], g.arr[:len(g.from)], g.cost[:len(g.from)]
		for j, from := range g.from {
			if from != vmIdx { // else produced locally
				in.add(pred[j].Size, arr[j], cost[j])
			}
		}
		return in
	}
	for _, e := range s.ctx.pred[t] {
		if from, arr, cost := s.upload(e); from != vmIdx {
			in.add(e.Size, arr, cost)
		}
	}
	return in
}

// upload is what edge e contributes to a placement away from the VM
// that ran its producer: that VM, when the data reaches the datacenter
// and the producer's upload cost. The upload crosses the producer's own
// provider's link: its bandwidth plus the inter-provider latency. Both
// degenerate to the scalar model (CatBandwidth == Bandwidth, XferLat ==
// 0) on single-provider platforms.
func (s *state) upload(e wf.Edge) (vm int, arr, cost float64) {
	vm = s.taskVM[e.From]
	if vm == plan.Unassigned {
		panic(fmt.Sprintf("sched: evaluating task %d before its predecessor %d is scheduled", e.To, e.From))
	}
	p := s.ctx.p
	cat := s.vms[vm].cat
	xfer := e.Size / p.CatBandwidth(cat)
	// The conversion keeps the product rounded on its own, so that a sum
	// of the stored costs is the sum eval computes.
	return vm, s.finish[e.From] + p.XferLat(cat) + xfer, float64(xfer * p.Categories[cat].CostPerSec)
}

// add counts one edge staged from elsewhere.
func (in *taskInputs) add(size, arr, cost float64) {
	in.missing += size
	if arr > in.dcReady {
		in.dcReady = arr
	}
	in.srcCost += cost
}

// catTerms computes task t's terms on category cat given its inputs.
func (s *state) catTerms(t wf.TaskID, in taskInputs, cat int) catTerms {
	p := s.ctx.p
	chost := p.Categories[cat].CostPerSec
	bw := p.CatBandwidth(cat)
	work := in.missing/bw + s.ctx.cons[t]/p.Categories[cat].Speed
	if in.missing > 0 {
		// One staging flow on the candidate's link: charge its latency.
		work = p.XferLat(cat) + work
	}
	return catTerms{work: work, chost: chost, out: s.ctx.tasks[t].ExternalOut / bw * chost}
}

// onVM is the arithmetic of a placement on used VM i, from the task's
// inputs there and its terms on the VM's category: it starts when both
// the VM and its data are ready, and is charged the VM's lifetime
// extension.
func (s *state) onVM(in taskInputs, k catTerms, i int) (begin, eft, cost float64) {
	ready := s.vms[i].readyAt
	begin = ready
	if in.dcReady > begin {
		begin = in.dcReady
	}
	eft = begin + k.work
	return begin, eft, k.charge(in, eft-ready) // idle gap + staging + compute
}

// charge is the cost of a placement that bills the host for billed
// seconds: that time at the category's price, the producers' uploads
// and the final upload. It is monotone in billed.
func (k catTerms) charge(in taskInputs, billed float64) float64 {
	return billed*k.chost + in.srcCost + k.out
}

// place sets c to task t's placement on used VM i, after prepare(t)
// returned in and terms: a full eval over the gathered edges on a VM
// that runs a predecessor of t, and on any other VM, where t sees its
// fresh-VM inputs, onVM on prepare's results in O(1). It writes c field by field: a candidate
// built as a value and then copied out stalls on store forwarding,
// which measured up to 3× slower in the planners' loops over the used
// VMs.
func (s *state) place(c *candidate, t wf.TaskID, in taskInputs, terms []catTerms, i int) {
	cat := s.vms[i].cat
	if s.runsPred(i, t) {
		*c = s.eval(t, i, cat)
		return
	}
	c.begin, c.eft, c.cost = s.onVM(in, terms[cat], i)
	c.vm, c.cat = i, cat
}

// placeFresh places a task on a fresh VM of category cat: it boots
// once the data is ready, and the boot is uncharged.
func (s *state) placeFresh(in taskInputs, k catTerms, cat int) candidate {
	begin := in.dcReady
	eft := begin + s.ctx.p.CatBootTime(cat) + k.work
	cost := k.work*k.chost + in.srcCost + k.out
	return candidate{vm: -1, cat: cat, begin: begin, eft: eft, cost: cost}
}

// prepare runs the part of every placement of task t that does not
// depend on the host: its fresh-VM inputs and its terms on every
// category (in a buffer of the state, valid until the next prepare). In
// the same pass over t's edges it gathers them (gathered): the full
// evaluations that follow read that copy, and it names the VMs that run
// a predecessor of t (runsPred) with what each holds, which is all
// eftFloor reads.
func (s *state) prepare(t wf.TaskID) (taskInputs, []catTerms) {
	g := &s.g
	pred := s.ctx.pred[t]
	g.task = t + 1
	g.from, g.arr, g.cost = g.from[:len(pred)], g.arr[:len(pred)], g.cost[:len(pred)]
	g.onVM, g.loc = g.onVM[:0], g.loc[:0]
	g.first, g.second, g.firstVM = 0, 0, -1
	in := taskInputs{missing: s.ctx.tasks[t].ExternalIn}
	for j, e := range pred {
		vm, arr, cost := s.upload(e)
		g.from[j], g.arr[j], g.cost[j] = vm, arr, cost
		in.add(e.Size, arr, cost)
		v := &s.vms[vm]
		if !s.listed(vm) {
			v.pred = len(g.onVM)
			g.onVM, g.loc = append(g.onVM, vm), append(g.loc, 0)
		}
		g.loc[v.pred] += e.Size
		// The latest arrival and the latest from another VM, both from 0
		// and skipping NaN, as inputs' maximum does.
		switch {
		case arr > g.first:
			if vm != g.firstVM {
				g.second = g.first
			}
			g.first, g.firstVM = arr, vm
		case vm != g.firstVM && arr > g.second:
			g.second = arr
		}
	}
	for k := range s.terms {
		s.terms[k] = s.catTerms(t, in, k)
	}
	return in, s.terms
}

// listed reports whether used VM i is in the last prepare's onVM.
func (s *state) listed(i int) bool {
	p := s.vms[i].pred
	return p < len(s.g.onVM) && s.g.onVM[p] == i
}

// runsPred reports whether used VM i runs a predecessor of t, after
// prepare(t).
func (s *state) runsPred(i int, t wf.TaskID) bool { return s.g.task == t+1 && s.listed(i) }

// eftFloor bounds from below the EFT of task t on used VM i, the p-th
// of onVM, after prepare(t) returned in. It places t on i with i's
// exact dcReady (first, or second on firstVM) and no more bytes to
// stage than eval counts there, through the same catTerms and onVM,
// which are monotone in the bytes (a floor of 0 bytes drops the
// staging latency, which is not negative): it finishes no later.
//
// The floor stages T − loc_i − (d+2)·2⁻⁵⁰·T, at least 0, where T is
// in.missing, the fresh-VM bytes, and d = deg(t). Eval stages
// missing_i, and that is at least as much: with u = 2⁻⁵³, T, loc_i and
// missing_i are sums in edge order of at most d+1 non-negative floats,
// so each lies within γ = d·u/(1 − d·u) of its exact value S, L_i or
// S − L_i, relative to that value. Hence
//
//	missing_i ≥ (S − L_i)(1 − γ) ≥ S − L_i − γS
//	T − loc_i ≤ S(1 + γ) − L_i(1 − γ) ≤ S − L_i + 2γS
//
// so missing_i ≥ T − loc_i − 3γS, with S ≤ T/(1 − γ). The rounded
// T − loc_i exceeds the exact one by at most u·max(T, loc_i) ≤
// u·T(1 + γ)/(1 − γ), and the margin ((d+2)·2⁻⁵⁰ is exact) rounds to at
// least 8(d+2)·u·T·(1 − u) away from underflow. For d·u ≤ 2⁻¹⁰,
//
//	3γ/(1 − γ) + u(1 + γ)/(1 − γ) ≤ (3.01d + 1.01)·u < 8(d+2)(1 − u)·u
//
// so the exact difference of the rounded operands is at most
// missing_i, a float, and the last subtraction, rounding monotonically,
// stays at or below it. FuzzEFTFloorBelowEval checks the bound, also
// where T − loc_i cancels and only the margin keeps it.
func (s *state) eftFloor(t wf.TaskID, in taskInputs, p int) float64 {
	g := &s.g
	i := g.onVM[p]
	margin := float64(len(g.from)+2) * 0x1p-50 * in.missing
	lo := taskInputs{missing: max(0, in.missing-g.loc[p]-margin), dcReady: g.first}
	if i == g.firstVM {
		lo.dcReady = g.second
	}
	_, eft, _ := s.onVM(lo, s.catTerms(t, lo, s.vms[i].cat), i)
	return eft
}

// appendCandidates appends every host option for task t to dst: each
// VM already in use plus one fresh VM per category (§IV-A: "the set of
// host candidates ... consists of already used VMs plus one fresh VM
// of each category"). The planners that scan a candidate list pass one
// buffer for the whole plan.
func (s *state) appendCandidates(dst []candidate, t wf.TaskID) []candidate {
	in, terms := s.prepare(t)
	return s.appendPlaced(dst, t, in, terms, -1)
}

// appendPlaced appends task t's candidates on every used VM, then on a
// fresh VM of each category, after prepare(t) returned in and terms;
// only, when not -1, keeps one category.
func (s *state) appendPlaced(dst []candidate, t wf.TaskID, in taskInputs, terms []catTerms, only int) []candidate {
	dst = slices.Grow(dst, len(s.vms)+len(terms))
	for i := range s.vms {
		if only < 0 || s.vms[i].cat == only {
			dst = append(dst, candidate{})
			s.place(&dst[len(dst)-1], t, in, terms, i)
		}
	}
	for k, kt := range terms {
		if only < 0 || k == only {
			dst = append(dst, s.placeFresh(in, kt, k))
		}
	}
	return dst
}

// bestHost implements getBestHost (Algorithm 2): the candidate with
// the smallest EFT among those whose cost respects the allowance.
// When no candidate fits, it falls back to the cheapest one (ties on
// EFT): the schedule is always completed, and the overrun surfaces in
// the simulated cost — exactly how the paper counts invalid schedules.
// The predecessor pass runs once (prepare), and the hosts come from the
// readiness index (state.hosts): a selection costs O(deg) for that pass
// and the EFT floors of the k VMs that run a predecessor, O(k) plus a
// full O(deg) evaluation for each of those whose floor the earliest
// affordable finish so far does not beat (about one per task on
// CyberShake and Montage), O(log VMs) per category to find the VMs ready by
// the data, and O(1) per VM it walks — in each category the last one
// ready by the data with its cost ties, and those ready later up to the
// first affordable one, all of them only when nothing is affordable. A
// selection the index cannot serve (a term is not finite) places every
// host, in O(deg·(k+1) + VMs + categories).
func (s *state) bestHost(t wf.TaskID, allowance float64) candidate {
	in, terms := s.prepare(t)
	used, fresh := s.hosts(t, in, terms, allowance, -1)
	return pickBest(used, fresh, allowance)
}

// cheaper orders the fallback fold, which picks when no candidate is
// affordable: cost, then an existing VM before a fresh one (a fresh
// VM's initialization cost is pre-reserved and thus absent from ct,
// but when the budget is already blown the reserve is gone too), then
// EFT.
func cheaper(c, b *candidate) bool {
	if c.cost != b.cost {
		return c.cost < b.cost
	}
	if (c.vm >= 0) != (b.vm >= 0) {
		return c.vm >= 0
	}
	return c.eft < b.eft
}

// pickBest applies the selection rule to a pre-built candidate list,
// enumerated as used then fresh, as every planner enumerates hosts: the
// list state.hosts lays out for bestHost and for MIN-MIN's re-scans
// (pickCache.repick). Affordable candidates (cost ≤ allowance, so never
// a NaN cost) compete on less; when none is affordable the fallback
// fold keeps the cheapest, and stops folding once one is.
// TestPickBestMatchesSelector holds it to the streaming reference fold
// of selector_test.go.
func pickBest(used, fresh []candidate, allowance float64) candidate {
	var best, cheapest *candidate
	for _, part := range [2][]candidate{used, fresh} {
		for i := range part {
			c := &part[i]
			if !(c.cost <= allowance) {
				if best == nil && (cheapest == nil || cheaper(c, cheapest)) {
					cheapest = c
				}
			} else if best == nil || less(*c, *best) {
				best = c
			}
		}
	}
	if best != nil {
		return *best
	}
	return *cheapest
}

// less orders candidates by (EFT, cost, existing-before-fresh).
func less(a, b candidate) bool {
	if a.eft != b.eft {
		return a.eft < b.eft
	}
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	return a.vm >= 0 && b.vm < 0
}

// assign commits a candidate placement for task t and returns the VM
// index actually used (allocating a fresh VM if needed).
func (s *state) assign(t wf.TaskID, c candidate) int {
	idx := c.vm
	if idx < 0 {
		s.vms = append(s.vms, vmSt{cat: c.cat, bookAt: c.begin, readyAt: c.eft})
		idx = len(s.vms) - 1
		s.enter(idx)
	} else {
		s.advance(idx, c.eft)
	}
	s.taskVM[t] = idx
	s.finish[t] = c.eft
	return idx
}

// extract converts the planner state into a plan.Schedule with the
// given global priority list, in one allocation per field. Each VM
// runs its tasks in listT order, the order they were assigned in.
func (s *state) extract(listT []wf.TaskID) *plan.Schedule {
	out := &plan.Schedule{
		VMCats: make([]int, len(s.vms)),
		TaskVM: append([]int(nil), s.taskVM...),
		ListT:  append([]wf.TaskID(nil), listT...),
	}
	for i, vm := range s.vms {
		out.VMCats[i] = vm.cat
	}
	out.RebuildOrder()
	for t, end := range s.finish {
		end += s.ctx.tasks[t].ExternalOut / s.ctx.p.CatBandwidth(s.vms[s.taskVM[t]].cat)
		if end > out.EstMakespan {
			out.EstMakespan = end
		}
	}
	return out
}
