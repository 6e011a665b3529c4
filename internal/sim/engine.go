package sim

import (
	"fmt"
	"math"

	"budgetwf/internal/evloop"
	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/wf"
)

// evKind discriminates events.
type evKind uint8

const (
	evBoot      evKind = iota // a VM finished booting
	evStage                   // a task's inputs are staged on its VM
	evCompute                 // a computation completed
	evInterrupt               // a monitoring timeout fired (Controller.Timeout)
	evUpload                  // an edge's payload reached the datacenter
	evCrash                   // a VM crash-stop (ScheduleCrash)
	evWake                    // a VM's reboot backoff elapsed
)

// Event is one pending event of an execution. Outside this package it
// is opaque: a host loop (internal/pool, through online.Hosted) queues
// it at the instant Emit names and hands it back to Exec.Step. It is
// small because the event heap moves it on every push and pop.
type Event struct {
	kind evKind
	id   int32 // the VM, or the edge of an upload
	task int32
	// stamp is the VM's epoch (stage, compute, interrupt) or the edge's
	// upload generation (upload) at push time; an event whose stamp no
	// longer matches is stale and dropped.
	stamp int32
}

// flowKind discriminates data movements under datacenter contention.
type flowKind int

const (
	flowStaging flowKind = iota // datacenter → VM, serialized before compute
	flowUpload                  // VM → datacenter for a consumer elsewhere
	flowOutput                  // VM → datacenter, an external output
)

// flow is one data movement in the fluid model: its completion time is
// not known when it starts, since remaining/rate evolve with sharing.
type flow struct {
	kind      flowKind
	vm        int       // staging: destination; upload/output: source
	task      wf.TaskID // staging: consumer
	edge      int       // upload: edge index
	remaining float64
	rate      float64
}

// EdgeState is where one edge's payload currently lives.
type EdgeState uint8

// Edge states.
const (
	EdgePending   EdgeState = iota // producer not finished (or its output was lost)
	EdgeLocal                      // payload only on the producer's VM
	EdgeUploading                  // on its way to the datacenter
	EdgeAtDC                       // available at the datacenter
)

// VM is one VM's state during an execution.
type VM struct {
	Cat          int
	Queue        []wf.TaskID // tasks in service order; never modified
	Next         int         // index in Queue of the task in service or next up
	Booked       bool
	BookTime     float64
	BootDone     float64 // H_start,v: end of boot, beginning of billing
	End          float64 // H_end,v so far
	Busy         bool    // staging or computing Current
	Computing    bool
	Current      wf.TaskID
	ComputeStart float64
	// A leased VM came from a host's pool already booted, LeaseAge old:
	// Invoice charges only the billing units past those already paid.
	Leased   bool
	LeaseAge float64
	// Epoch invalidates the VM's in-flight activity events when it
	// abandons them; crash events check Dead instead.
	Epoch      int
	Dead       bool
	BootFailed bool

	booting    bool
	notBefore  float64 // reboot backoff: earliest booking instant
	wakeQueued bool
	freeAt     float64   // when the VM last became idle, for blame
	prevTask   wf.TaskID // last completed task, for blame
	hasPrev    bool
	busyTime   float64 // accumulated staging + compute time
}

// Controller is the policy layer an execution consults at its decision
// points: internal/online's monitoring, budget guard and failure
// recovery. An execution without one runs the schedule as planned.
type Controller interface {
	// Timeout returns how long t may compute on v before Interrupt fires,
	// if its computation is monitored there.
	Timeout(v int, t wf.TaskID) (float64, bool)
	// Interrupt handles a fired timeout of t, still computing on v, and
	// reports whether it took the task away; if not, the computation
	// runs to completion.
	Interrupt(v int, t wf.TaskID) bool
	// Booted and Computed report whether v's boot, or t's computation on
	// v, succeeded; on false the controller has handled the failure.
	Booted(v int) bool
	Computed(v int, t wf.TaskID) bool
	// Crash handles a crash of v scheduled with ScheduleCrash.
	Crash(v int)
	// Reruns bounds how many times one task may run, scaling the
	// livelock guard.
	Reruns() int
}

// engineStatic is the schedule-dependent, run-independent part of an
// execution: cached graph structure, staging volumes and the validation
// outcome. A Runner builds it once and re-points it with bind.
type engineStatic struct {
	w     *wf.Workflow
	p     *platform.Platform
	s     *plan.Schedule
	fluid bool
	// exact says the scoring pass (score.go) reproduces the event loop's
	// makespan and cost bit for bit on this platform.
	exact bool
	// The scoring pass's task order, worked out on first use after each
	// bind (passOrder): listTopo says ListT is a topological permutation
	// of every task; order is ListT when every VM's order also follows
	// it, else Kahn's order in orderBuf.
	ordered  bool
	listTopo bool
	order    []wf.TaskID
	orderBuf []wf.TaskID

	edges     []wf.Edge    // the workflow's edges, read-only
	in, out   wf.Adjacency // edge indices per consumer / producer
	dcIn      float64      // cached w.ExternalInSize(), billed by DCCost
	dcOut     float64      // cached w.ExternalOutSize()
	stageSize []float64    // bytes to stage before computing (incl. external in)
	missing0  []int        // initial count of crossing inputs per task
	pos       []int        // plan.Schedule.ValidateBuf scratch
}

func newEngineStatic(w *wf.Workflow, p *platform.Platform, s *plan.Schedule) (*engineStatic, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	n := w.NumTasks()
	st := &engineStatic{
		w:         w,
		p:         p,
		fluid:     p.DCBandwidth > 0,
		exact:     p.DCBandwidth == 0 && p.MaxXferCostPerByte() == 0,
		edges:     w.EdgesView(),
		in:        w.In(),
		out:       w.Out(),
		dcIn:      w.ExternalInSize(),
		dcOut:     w.ExternalOutSize(),
		stageSize: make([]float64, n),
		missing0:  make([]int, n),
		pos:       make([]int, n),
	}
	if err := st.bind(s); err != nil {
		return nil, err
	}
	return st, nil
}

// bind validates s and points the static at it, recomputing staging
// volumes and crossing-input counts; the graph caches are kept. Staging
// volumes add up a task's crossing inputs in edge-index order, as
// wf.Pred lists them. On error the static is unchanged.
func (st *engineStatic) bind(s *plan.Schedule) error {
	if err := s.ValidateBuf(st.w, st.p.NumCategories(), st.pos); err != nil {
		return err
	}
	st.point(s)
	return nil
}

// point is bind without the validation, for a schedule already bound
// once.
func (st *engineStatic) point(s *plan.Schedule) {
	st.s, st.ordered = s, false
	for t, task := range st.w.TasksView() {
		st.stageSize[t] = task.ExternalIn
		st.missing0[t] = 0
	}
	for _, edge := range st.edges {
		if s.TaskVM[edge.From] != s.TaskVM[edge.To] {
			st.stageSize[edge.To] += edge.Size
			st.missing0[edge.To]++
		}
	}
}

// Exec is the execution engine: the one VM / transfer / task state
// machine of the §III-C model, which every simulation (Run, Runner) and
// every online execution (internal/online, internal/pool) replays.
// Events and flows are values and every table lives in buffers a Runner
// rewinds, so a replayed execution allocates nothing.
//
// Without a Controller or a host it is the paper's simulator. A
// Controller drives it through the exported state and verbs below. The
// first intervention that moves, kills or abandons work switches the
// engine from waking only the VMs an event can unblock to sweeping every
// VM after each event. An Exec is not safe for concurrent use.
type Exec struct {
	st      *engineStatic
	weights []float64
	ctl     Controller

	// Host hooks, nil for a standalone execution: Emit diverts every
	// event to the host's loop; Acquire offers an already-booted pooled
	// VM at booking time, returning its age; OnProvision observes every
	// booking, fresh or leased.
	Emit        func(at float64, ev Event)
	Acquire     func(cat int, at float64) (age float64, ok bool)
	OnProvision func(at float64, vm, cat int, leased bool, bootDone float64)

	now      float64
	steps    int
	maxSteps int // livelock guard, see step
	events   evloop.Queue[Event]
	flows    []flow // active flows under datacenter contention
	doneBuf  []flow // scratch for advanceFlows
	sweep    bool   // wake every VM after each event (see Exec)

	VMs []VM
	// The scoring pass's VM table (score.go), which no event reads.
	scoreVMs []scoreVM

	// Per task, indexed by TaskID.
	Cur         []int  // the VM a task runs on: its planned one until moved
	Replica     []int  // a second VM racing the task, -1 if none
	Done        []bool // finished (and not lost since)
	Failed      []bool // permanently failed
	DoneCount   int
	FailedCount int
	Times       []TaskTimes
	ExtDone     []float64 // when a finished task's external output reached the datacenter
	started     []bool
	missing     []int // crossing inputs not yet at the datacenter
	dcReadyTime []float64
	dcReadyPred []wf.TaskID
	hasDCPred   []bool
	blames      []Blame

	// Per edge, indexed like the workflow's edges.
	EdgeState []EdgeState
	EdgeVM    []int // the VM holding the payload while EdgeLocal
	upSrc     []int // the VM sending the payload while EdgeUploading
	upSeq     []int // upload generation, bumped by Drop

	XferCost float64 // inter-provider surcharges accrued, at launch
	Wasted   float64 // billed VM time thrown away (controllers add theirs)

	result Result // reused by Collect
}

func newExec(st *engineStatic) *Exec {
	n, ne := st.w.NumTasks(), len(st.edges)
	ints, bools, floats := make([]int, 3*n), make([]bool, 4*n), make([]float64, 2*n)
	edgeInts := make([]int, 3*ne)
	return &Exec{
		st:          st,
		missing:     ints[:n:n],
		Cur:         ints[n : 2*n : 2*n],
		Replica:     ints[2*n:],
		Done:        bools[:n:n],
		Failed:      bools[n : 2*n : 2*n],
		started:     bools[2*n : 3*n : 3*n],
		hasDCPred:   bools[3*n:],
		dcReadyTime: floats[:n:n],
		ExtDone:     floats[n:],
		dcReadyPred: make([]wf.TaskID, n),
		Times:       make([]TaskTimes, n),
		blames:      make([]Blame, n),
		EdgeState:   make([]EdgeState, ne),
		EdgeVM:      edgeInts[:ne:ne],
		upSrc:       edgeInts[ne : 2*ne : 2*ne],
		upSeq:       edgeInts[2*ne:],
	}
}

// NewExec validates the workflow, platform, schedule and weights and
// returns an execution at time zero, to Run or to drive from a host
// loop (AdvanceAll, then Step). The weights slice is read throughout.
func NewExec(w *wf.Workflow, p *platform.Platform, s *plan.Schedule, weights []float64) (*Exec, error) {
	if len(weights) != w.NumTasks() {
		return nil, fmt.Errorf("sim: %d weights for %d tasks", len(weights), w.NumTasks())
	}
	st, err := newEngineStatic(w, p, s)
	if err != nil {
		return nil, err
	}
	e := newExec(st)
	if err := e.reset(weights); err != nil {
		return nil, err
	}
	return e, nil
}

// SetController attaches the policy layer, before the first event.
func (e *Exec) SetController(c Controller) { e.ctl = c }

// reset rewinds the engine to time zero with the given realized
// weights, reusing every buffer.
func (e *Exec) reset(weights []float64) error {
	if err := e.rewind(weights); err != nil {
		return err
	}
	s := e.st.s
	if cap(e.VMs) < s.NumVMs() {
		e.VMs = make([]VM, s.NumVMs())
	}
	e.VMs = e.VMs[:s.NumVMs()]
	for i := range e.VMs {
		e.VMs[i] = VM{Cat: s.VMCats[i], Queue: s.Order[i]}
	}
	e.now, e.steps, e.maxSteps, e.sweep = 0, 0, 0, false
	e.events.Reset()
	e.flows = e.flows[:0]
	e.DoneCount, e.FailedCount = 0, 0
	e.XferCost, e.Wasted = 0, 0
	copy(e.Cur, e.st.s.TaskVM)
	for t := range e.Times {
		e.Replica[t] = -1
		e.Done[t], e.Failed[t], e.started[t], e.hasDCPred[t] = false, false, false, false
		e.ExtDone[t] = 0
		e.dcReadyPred[t] = 0
		e.Times[t] = TaskTimes{}
		e.blames[t] = Blame{}
	}
	clear(e.EdgeState)
	clear(e.upSeq)
	return nil
}

// rewind checks the weights and rewinds the state the event loop keeps
// and the scoring pass (score.go) borrows: the outstanding crossing
// inputs and the datacenter arrival times. reset and the scoring pass
// each set up their own VM table.
func (e *Exec) rewind(weights []float64) error {
	for t, wt := range weights {
		if wt <= 0 || math.IsNaN(wt) || math.IsInf(wt, 0) {
			return fmt.Errorf("sim: task %d has invalid weight %v", t, wt)
		}
	}
	e.weights = weights
	copy(e.missing, e.st.missing0)
	clear(e.dcReadyTime)
	return nil
}

// Now returns the execution's clock.
func (e *Exec) Now() float64 { return e.now }

// Edges returns the workflow's edges; In and Out list the indices of a
// task's incoming and outgoing ones, in edge-index order. All three are
// read-only.
func (e *Exec) Edges() []wf.Edge      { return e.st.edges }
func (e *Exec) In(t wf.TaskID) []int  { return e.st.in.Of(t) }
func (e *Exec) Out(t wf.TaskID) []int { return e.st.out.Of(t) }

// push schedules an event of the given kind at instant at.
func (e *Exec) push(at float64, kind evKind, id int, t wf.TaskID, stamp int) {
	ev := Event{kind: kind, id: int32(id), task: int32(t), stamp: int32(stamp)}
	if e.Emit != nil {
		e.Emit(at, ev)
		return
	}
	e.events.Push(at, ev)
}

// send starts moving size bytes between VM v and the datacenter and
// returns when they arrive. Every transfer crosses the VM↔DC link of
// its VM: on a market platform that means the VM provider's bandwidth,
// a fixed inter-provider latency and a per-byte surcharge, all three
// degenerating to the scalar model on single-provider platforms. Under
// datacenter contention the arrival is not known yet: f joins the
// fluid flows and send returns +Inf.
func (e *Exec) send(v int, size float64, f flow) float64 {
	cat := e.VMs[v].Cat
	e.XferCost += size * e.st.p.XferCost(cat)
	if e.st.fluid {
		f.vm, f.remaining = v, size
		e.flows = append(e.flows, f)
		return math.Inf(1)
	}
	return e.now + e.st.p.XferLat(cat) + size/e.st.p.CatBandwidth(cat)
}

// upload ships edge ei's payload from VM src to the datacenter.
func (e *Exec) upload(ei, src int) {
	e.EdgeState[ei] = EdgeUploading
	e.upSrc[ei] = src
	if at := e.send(src, e.st.edges[ei].Size, flow{kind: flowUpload, edge: ei}); !e.st.fluid {
		e.push(at, evUpload, ei, 0, e.upSeq[ei])
	}
}

// advanceFlows moves the fluid flows forward by dt under max-min fair
// sharing of the datacenter bandwidth, each flow capped by its VM link,
// and returns those that completed, in creation order. The returned
// slice is scratch, valid until the next call.
func (e *Exec) advanceFlows(dt float64) []flow {
	done := e.doneBuf[:0]
	remainingFlows := e.flows[:0]
	for _, f := range e.flows {
		f.remaining -= f.rate * dt
		if f.remaining <= 1e-9 {
			f.remaining = 0
			done = append(done, f)
		} else {
			remainingFlows = append(remainingFlows, f)
		}
	}
	e.flows = remainingFlows
	e.doneBuf = done
	return done
}

func (e *Exec) flowDone(f flow) {
	switch f.kind {
	case flowStaging:
		e.staged(f.vm, f.task)
	case flowUpload:
		e.uploaded(f.edge)
	case flowOutput:
		if e.now > e.VMs[f.vm].End {
			e.VMs[f.vm].End = e.now
		}
	}
}

// AdvanceAll gives every VM, in index order, the chance to move on.
func (e *Exec) AdvanceAll() {
	for v := range e.VMs {
		e.tryAdvance(v)
	}
}

// tryAdvance examines the task at the head of VM v's queue and starts
// whatever phase can start now: booking, staging, or computing.
func (e *Exec) tryAdvance(v int) {
	vm := &e.VMs[v]
	var t wf.TaskID
	for {
		if vm.Dead || vm.Busy || vm.booting || vm.Next >= len(vm.Queue) {
			return
		}
		t = vm.Queue[vm.Next]
		if !e.Done[t] && !e.Failed[t] && (e.Cur[t] == v || e.Replica[t] == v) {
			break
		}
		vm.Next++ // finished elsewhere, abandoned, or moved away: skip it
	}
	stage := e.st.stageSize[t]
	if e.sweep {
		var ok bool
		if stage, ok = e.stageIn(v, t); !ok {
			return
		}
	} else if e.missing[t] > 0 {
		return // inputs still on their way to the datacenter
	}
	if !vm.Booked {
		e.book(v)
		return
	}
	// VM is booted and idle: start staging (or compute directly).
	vm.Busy = true
	vm.Current = t
	e.started[t] = true
	e.Times[t].StageStart = e.now
	e.blames[t] = e.blameFor(v, t)
	if stage > 0 {
		if at := e.send(v, stage, flow{kind: flowStaging, task: t}); !e.st.fluid {
			e.push(at, evStage, v, t, vm.Epoch)
		}
		return
	}
	e.StartCompute(v, t)
}

// stageIn checks t's inputs from their edges' states, for a task that
// may have moved since the plan, and returns the bytes to stage onto v.
// A payload left on another live VM is shipped via the datacenter
// first; one that died with its VM waits for its producer's recovery.
func (e *Exec) stageIn(v int, t wf.TaskID) (float64, bool) {
	stage := e.st.w.TasksView()[t].ExternalIn
	for _, ei := range e.st.in.Of(t) {
		switch e.EdgeState[ei] {
		case EdgePending, EdgeUploading:
			return 0, false
		case EdgeLocal:
			if src := e.EdgeVM[ei]; src != v {
				if !e.VMs[src].Dead {
					e.upload(ei, src)
				}
				return 0, false
			}
		case EdgeAtDC:
			stage += e.st.edges[ei].Size
		}
	}
	return stage, true
}

// book books VM v, whose first task's data is at the datacenter — once
// its reboot backoff, if any, has elapsed.
func (e *Exec) book(v int) {
	vm := &e.VMs[v]
	if e.now < vm.notBefore {
		if !vm.wakeQueued {
			vm.wakeQueued = true
			e.push(vm.notBefore, evWake, v, 0, 0)
		}
		return
	}
	vm.Booked, vm.booting, vm.BookTime = true, true, e.now
	vm.BootDone = e.now + e.st.p.CatBootTime(vm.Cat)
	if e.Acquire != nil {
		// A pooled VM is already booted: its boot event fires at once so
		// the dispatch sequence keeps its shape.
		if age, ok := e.Acquire(vm.Cat, e.now); ok {
			vm.Leased, vm.LeaseAge, vm.BootDone = true, age, e.now
		}
	}
	e.push(vm.BootDone, evBoot, v, 0, 0)
	if e.OnProvision != nil {
		e.OnProvision(e.now, v, vm.Cat, vm.Leased, vm.BootDone)
	}
}

// blameFor decides which constraint bound the start of task t on VM v.
func (e *Exec) blameFor(v int, t wf.TaskID) Blame {
	vm := &e.VMs[v]
	if vm.hasPrev {
		if vm.freeAt >= e.dcReadyTime[t] || !e.hasDCPred[t] {
			return Blame{Kind: BlameVMBusy, Pred: vm.prevTask}
		}
		return Blame{Kind: BlameDataArrival, Pred: e.dcReadyPred[t]}
	}
	// First task on the VM: the boot always completes after the data is
	// at the datacenter (booking rule), so blame the data chain if any.
	if e.hasDCPred[t] {
		return Blame{Kind: BlameDataArrival, Pred: e.dcReadyPred[t]}
	}
	return Blame{Kind: BlameNone}
}

// StartCompute starts t's computation on v, whose inputs are staged,
// under the controller's monitoring timeout if any.
func (e *Exec) StartCompute(v int, t wf.TaskID) {
	vm := &e.VMs[v]
	vm.Computing = true
	vm.ComputeStart = e.now
	e.Times[t].ComputeStart = e.now
	dur := e.weights[t] / e.st.p.Categories[vm.Cat].Speed
	if e.ctl != nil {
		if timeout, ok := e.ctl.Timeout(v, t); ok && dur > timeout {
			e.push(e.now+timeout, evInterrupt, v, t, vm.Epoch)
			return
		}
	}
	e.push(e.now+dur, evCompute, v, t, vm.Epoch)
}

// ScheduleCrash makes VM v crash-stop at instant at: Controller.Crash
// handles it then, unless the VM is dead by then.
func (e *Exec) ScheduleCrash(v int, at float64) { e.push(at, evCrash, v, 0, 0) }

func (e *Exec) finishCompute(v int, t wf.TaskID) {
	vm := &e.VMs[v]
	vm.Busy, vm.Computing = false, false
	vm.Next++
	vm.busyTime += e.now - e.Times[t].StageStart
	vm.freeAt, vm.prevTask, vm.hasPrev = e.now, t, true
	e.Done[t] = true
	e.DoneCount++
	e.Times[t].Finish = e.now
	if e.now > vm.End {
		vm.End = e.now
	}
	if rv := e.Replica[t]; rv >= 0 {
		// First finisher wins; the losing replica is cancelled.
		other := rv
		if other == v {
			other = e.Cur[t]
		}
		e.Replica[t] = -1
		e.Cur[t] = v
		e.cancelReplica(other, t)
	}
	// Keep outputs for consumers on this VM; upload the others, and
	// external outputs.
	for _, ei := range e.st.out.Of(t) {
		if e.EdgeState[ei] == EdgeAtDC {
			continue // checkpointed at the datacenter by an earlier run
		}
		to := e.st.edges[ei].To
		if e.Cur[to] == v {
			e.EdgeState[ei], e.EdgeVM[ei] = EdgeLocal, v
			continue
		}
		if e.st.edges[ei].Size == 0 {
			e.upSrc[ei] = v
			e.arrive(ei)
			if !e.sweep && e.missing[to] == 0 {
				e.tryAdvance(e.Cur[to])
			}
			continue
		}
		e.upload(ei, v)
	}
	if out := e.st.w.TasksView()[t].ExternalOut; out > 0 {
		if at := e.send(v, out, flow{kind: flowOutput}); !e.st.fluid {
			e.ExtDone[t] = at
			if at > vm.End {
				vm.End = at
			}
		}
	}
	if e.sweep {
		e.AdvanceAll()
	} else {
		e.tryAdvance(v)
	}
}

// cancelReplica stops the losing copy of a replicated task. Time it
// already burned stays billed; its VM proceeds with its queue. If the
// copy was merely queued, tryAdvance skips the finished task.
func (e *Exec) cancelReplica(v int, t wf.TaskID) {
	vm := &e.VMs[v]
	if vm.Dead || !vm.Busy || vm.Current != t {
		return
	}
	vm.Epoch++
	if vm.Computing {
		e.Wasted += e.now - vm.ComputeStart
	}
	e.Abandon(v)
}

// Abandon stops the task VM v is serving, if any: the VM moves on to
// its queue and the time spent stays billed.
func (e *Exec) Abandon(v int) {
	e.sweep = true
	if vm := &e.VMs[v]; vm.Busy {
		vm.Busy, vm.Computing = false, false
		vm.Next++
		if e.now > vm.End {
			vm.End = e.now
		}
	}
}

// AddVM appends an unbooked VM of category cat serving queue, bookable
// from notBefore on, and returns its index.
func (e *Exec) AddVM(cat int, queue []wf.TaskID, notBefore float64) int {
	e.sweep = true
	e.VMs = append(e.VMs, VM{Cat: cat, Queue: queue, notBefore: notBefore})
	return len(e.VMs) - 1
}

// Kill crash-stops VM v at instant at: its in-flight activity events go
// stale, the uploads it was sending die, and its uptime through at
// stays billed.
func (e *Exec) Kill(v int, at float64) {
	e.sweep = true
	vm := &e.VMs[v]
	vm.Dead = true
	vm.Epoch++
	vm.Busy, vm.Computing = false, false
	vm.End = at
	for ei, s := range e.EdgeState {
		if s == EdgeUploading && e.upSrc[ei] == v {
			e.Drop(ei)
		}
	}
}

// Drop returns edge ei's payload to pending: it must be produced again,
// and any upload of it in flight is void.
func (e *Exec) Drop(ei int) {
	e.EdgeState[ei] = EdgePending
	e.upSeq[ei]++
}

// Invoice is VM v's bill if it lives through end: Equation (1) for a
// fresh VM, the billing units past those already paid for a leased
// one, and only the setup fee for a VM whose boot failed.
func (e *Exec) Invoice(v int, end float64) float64 {
	vm, p := &e.VMs[v], e.st.p
	switch {
	case vm.BootFailed:
		return p.Categories[vm.Cat].InitCost
	case vm.Leased:
		return p.ExtensionCost(vm.Cat, vm.LeaseAge, vm.LeaseAge+(end-vm.BootDone))
	}
	return p.VMCost(vm.Cat, vm.BootDone, end)
}

// arrive records that edge ei's payload reached the datacenter.
func (e *Exec) arrive(ei int) {
	if src := &e.VMs[e.upSrc[ei]]; e.now > src.End {
		src.End = e.now
	}
	e.EdgeState[ei] = EdgeAtDC
	edge := e.st.edges[ei]
	t := edge.To
	e.missing[t]--
	if e.now >= e.dcReadyTime[t] {
		e.dcReadyTime[t] = e.now
		e.dcReadyPred[t] = edge.From
		e.hasDCPred[t] = true
	}
}

// uploaded handles the arrival of an upload and wakes its consumer's VM
// if the consumer became ready.
func (e *Exec) uploaded(ei int) {
	e.arrive(ei)
	if e.sweep {
		e.AdvanceAll()
	} else if t := e.st.edges[ei].To; e.missing[t] == 0 {
		e.tryAdvance(e.Cur[t])
	}
}

// staged handles the end of t's staging on v.
func (e *Exec) staged(v int, t wf.TaskID) {
	if e.Done[t] || e.Failed[t] {
		e.abandonCurrent(v)
		return
	}
	e.StartCompute(v, t)
}

// abandonCurrent frees a VM whose in-flight task no longer needs it
// (finished by a replica or declared failed while running).
func (e *Exec) abandonCurrent(v int) {
	e.Abandon(v)
	e.tryAdvance(v)
}

// dispatch handles one event at the current instant.
func (e *Exec) dispatch(ev Event) {
	v, t, stamp := int(ev.id), wf.TaskID(ev.task), int(ev.stamp)
	switch ev.kind {
	case evBoot:
		e.VMs[v].booting = false
		e.VMs[v].freeAt = e.now
		if e.ctl == nil || e.ctl.Booted(v) {
			e.tryAdvance(v)
		}
	case evStage:
		if stamp == e.VMs[v].Epoch {
			e.staged(v, t)
		}
	case evCompute:
		switch {
		case stamp != e.VMs[v].Epoch:
		case e.Done[t] || e.Failed[t]:
			e.abandonCurrent(v)
		case e.ctl == nil || e.ctl.Computed(v, t):
			e.finishCompute(v, t)
		}
	case evInterrupt:
		if vm := &e.VMs[v]; stamp != vm.Epoch || !vm.Computing || vm.Current != t || e.ctl.Interrupt(v, t) {
			break
		}
		vm := &e.VMs[v] // vetoed: the computation runs to completion
		e.push(vm.ComputeStart+e.weights[t]/e.st.p.Categories[vm.Cat].Speed, evCompute, v, t, vm.Epoch)
	case evCrash:
		if !e.VMs[v].Dead {
			e.ctl.Crash(v)
		}
	case evWake:
		e.VMs[v].wakeQueued = false
		if !e.VMs[v].Dead {
			e.tryAdvance(v)
		}
	case evUpload:
		if ei := v; stamp == e.upSeq[ei] && e.EdgeState[ei] == EdgeUploading {
			e.uploaded(ei)
		}
	}
}

// Settled reports whether every task has reached a terminal state.
func (e *Exec) Settled() bool { return e.DoneCount+e.FailedCount >= len(e.Done) }

// step counts one dispatch against the livelock guard, whose bound grows
// with the VMs a controller adds, and moves the clock to at.
func (e *Exec) step(at float64) error {
	if e.steps++; e.steps > e.maxSteps {
		reruns := 1
		if e.ctl != nil {
			reruns = e.ctl.Reruns()
		}
		if e.maxSteps = 64 * (len(e.Done) + len(e.st.edges) + len(e.VMs) + 16) * reruns; e.steps > e.maxSteps {
			return fmt.Errorf("sim: exceeded %d steps; execution is livelocked", e.maxSteps)
		}
	}
	if at < e.now-1e-9 {
		return fmt.Errorf("sim: time went backwards: %v -> %v", e.now, at)
	}
	if at > e.now {
		e.now = at
	}
	return nil
}

// Step dispatches one event a host loop hands back, in the host's
// (time, sequence) order.
func (e *Exec) Step(at float64, ev Event) error {
	if err := e.step(at); err != nil {
		return err
	}
	e.dispatch(ev)
	return nil
}

// Run drives the execution on its own queue until every task has
// settled and every transfer has landed.
func (e *Exec) Run() error {
	e.AdvanceAll()
	for !e.Settled() || len(e.flows) > 0 {
		if len(e.flows) > 0 {
			// Equal shares of the datacenter bandwidth, each capped by the
			// VM link: all flows have the same cap, so max-min fair sharing
			// reduces to the minimum of the two.
			rate := math.Min(e.st.p.Bandwidth, e.st.p.DCBandwidth/float64(len(e.flows)))
			nextFlow, nextFixed := math.Inf(1), math.Inf(1)
			for i := range e.flows {
				e.flows[i].rate = rate
				if c := e.flows[i].remaining / rate; c < nextFlow {
					nextFlow = c
				}
			}
			if at, _, ok := e.events.Peek(); ok {
				nextFixed = at
			}
			// Move the flows to the first completion or fixed event.
			first := e.now+nextFlow < nextFixed
			if first || !math.IsInf(nextFixed, 1) {
				dt, to := nextFixed-e.now, nextFixed
				if first {
					dt, to = nextFlow, e.now+nextFlow
				}
				done := e.advanceFlows(dt)
				e.now = to
				for _, f := range done {
					e.flowDone(f)
				}
			}
			if first {
				if err := e.step(e.now); err != nil {
					return err
				}
				continue
			}
		}
		at, ev, ok := e.events.Pop()
		if !ok {
			if len(e.flows) == 0 {
				return errDeadlock(e.DoneCount, len(e.Done))
			}
			continue
		}
		if err := e.step(at); err != nil {
			return err
		}
		e.dispatch(ev)
	}
	// Transfers still in flight when the last task settled (possible when
	// consumers failed permanently) keep their source VM billed.
	for e.events.Len() > 0 {
		at, ev, _ := e.events.Pop()
		ei := int(ev.id)
		if ev.kind != evUpload || int(ev.stamp) != e.upSeq[ei] || e.EdgeState[ei] != EdgeUploading {
			continue
		}
		if at > e.now {
			e.now = at
		}
		e.arrive(ei)
	}
	return nil
}

// errDeadlock reports a schedule whose per-VM orders wait on each other
// across VMs: only done of its n tasks can ever run.
func errDeadlock(done, n int) error {
	return fmt.Errorf("sim: deadlock with %d/%d tasks finished", done, n)
}

// Collect assembles the execution's Result. Its slices alias the
// engine's buffers: valid until the engine is reset (one-shot entry
// points never reset, so their Results are stable). When tasks failed,
// only the external traffic that actually flowed is billed.
func (e *Exec) Collect() *Result {
	res := &e.result
	*res = Result{Tasks: e.Times, Blames: e.blames, VMs: res.VMs[:0]}
	firstBook, lastEvent := math.Inf(1), 0.0
	for i := range e.VMs {
		vm := &e.VMs[i]
		if !vm.Booked {
			continue // a VM with no task never gets booked and costs nothing
		}
		if vm.BookTime < firstBook {
			firstBook = vm.BookTime
		}
		if !vm.BootFailed && vm.End > lastEvent {
			lastEvent = vm.End
		}
		res.VMs = append(res.VMs, VMUsage{Cat: vm.Cat, Book: vm.BookTime, Start: vm.BootDone, End: vm.End,
			Cost: e.Invoice(i, vm.End), NumTasks: len(vm.Queue), Busy: vm.busyTime})
	}
	if math.IsInf(firstBook, 1) {
		firstBook = 0
	}
	if lastEvent < firstBook {
		lastEvent = firstBook
	}
	dcIn, dcOut := e.st.dcIn, e.st.dcOut
	if e.FailedCount > 0 {
		dcIn, dcOut = 0, 0
		for t, task := range e.st.w.TasksView() {
			if e.started[t] {
				dcIn += task.ExternalIn
			}
			if e.Done[t] {
				dcOut += task.ExternalOut
			}
		}
	}
	res.FirstBook, res.LastEvent, res.Makespan = firstBook, lastEvent, lastEvent-firstBook
	res.DCCost = e.st.p.DCCost(dcIn, dcOut, firstBook, lastEvent)
	res.XferCost = e.XferCost
	res.TotalCost = res.DCCost + res.VMCost() + res.XferCost
	return res
}
