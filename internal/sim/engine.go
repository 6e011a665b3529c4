package sim

import (
	"fmt"
	"math"

	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/wf"
)

// eventKind discriminates entries of the fixed-event heap.
type eventKind int

const (
	evBootDone eventKind = iota
	evComputeDone
	evFlowDone // only used when the datacenter bandwidth is unbounded
)

type event struct {
	time float64
	seq  int // insertion order, for deterministic tie-breaking
	kind eventKind
	vm   int
	task wf.TaskID
	flow *flow
}

// eventHeap is a hand-rolled binary min-heap of event values ordered
// by (time, seq). container/heap would box every Push/Pop through
// interface{}, allocating per event on the Monte Carlo hot path; this
// keeps events in one reusable backing array.
type eventHeap []event

func (h eventHeap) before(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s.before(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // drop the flow pointer
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s.before(l, smallest) {
			smallest = l
		}
		if r < n && s.before(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}

// flowKind discriminates data movements.
type flowKind int

const (
	flowStaging flowKind = iota // datacenter → VM, serialized before compute
	flowUpload                  // VM → datacenter, asynchronous
)

// flow is one data movement. In unbounded-DC mode its completion time
// is known at creation; in fluid mode remaining/rate evolve.
type flow struct {
	kind      flowKind
	vm        int       // staging: destination; upload: source
	task      wf.TaskID // staging: consumer; upload: producer
	edge      int       // upload: edge index, or -1 for an external output
	remaining float64
	rate      float64
	seq       int
	done      bool
}

// vmState tracks one VM through the simulation.
type vmState struct {
	cat      int
	queue    []wf.TaskID
	next     int
	booked   bool
	booting  bool
	bookTime float64
	bootDone float64
	busy     bool // staging or computing
	freeAt   float64
	prevTask wf.TaskID // last completed task, for blame
	hasPrev  bool
	end      float64 // H_end,v so far
	busyTime float64 // accumulated staging + compute time
}

// engineStatic is the schedule-dependent, run-independent part of the
// engine: cached graph structure, staging volumes and the validation
// outcome. A Runner computes it once and replays many executions
// against it — or re-points it at another schedule with bind, keeping
// the graph caches; the one-shot entry points build it per call.
type engineStatic struct {
	w     *wf.Workflow
	p     *platform.Platform
	s     *plan.Schedule
	fluid bool
	// exact says the scoring pass (score.go) reproduces the event loop's
	// makespan and cost bit for bit on this platform.
	exact bool

	outEdges  [][]wf.Edge // cached successor edges (wf.Succ allocates)
	extOut    []float64   // cached external output volumes
	dcIn      float64     // cached w.ExternalInSize(), billed by DCCost
	dcOut     float64     // cached w.ExternalOutSize()
	stageSize []float64   // bytes to stage before computing (incl. external in)
	missing0  []int       // initial count of crossing inputs per task
	flowCap   int         // upper bound on flows per run, sizing the arena
	maxSteps  int
	pos       []int // plan.Schedule.ValidateBuf scratch
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
		outEdges:  make([][]wf.Edge, n),
		extOut:    make([]float64, n),
		dcIn:      w.ExternalInSize(),
		dcOut:     w.ExternalOutSize(),
		stageSize: make([]float64, n),
		missing0:  make([]int, n),
		pos:       make([]int, n),
	}
	for t, task := range w.TasksView() {
		st.extOut[t] = task.ExternalOut
		st.outEdges[t] = w.Succ(wf.TaskID(t))
	}
	if err := st.bind(s); err != nil {
		return nil, err
	}
	return st, nil
}

// bind validates s and points the static at it, recomputing what
// depends on the schedule: staging volumes, crossing-input counts and
// the flow and step bounds. The graph caches are kept. Staging volumes
// add up a task's crossing inputs in edge-index order, as wf.Pred
// lists them. On error the static is unchanged.
func (st *engineStatic) bind(s *plan.Schedule) error {
	if err := s.ValidateBuf(st.w, st.p.NumCategories(), st.pos); err != nil {
		return err
	}
	st.s = s
	tasks := st.w.TasksView()
	for t := range tasks {
		st.stageSize[t] = tasks[t].ExternalIn
		st.missing0[t] = 0
	}
	crossEdges := 0
	for _, edge := range st.w.EdgesView() {
		if s.TaskVM[edge.From] != s.TaskVM[edge.To] {
			st.stageSize[edge.To] += edge.Size
			st.missing0[edge.To]++
			crossEdges++
		}
	}
	n := st.w.NumTasks()
	// One staging flow per task, one upload per crossing edge, one
	// external-output upload per task, at most.
	st.flowCap = 2*n + crossEdges
	st.maxSteps = 16 * (n + st.w.NumEdges() + s.NumVMs() + 16)
	return nil
}

// engine is the per-run mutable state. Reset() rewinds it so one
// allocation of every buffer serves a whole replication batch.
type engine struct {
	st      *engineStatic
	weights []float64

	now       float64
	seq       int
	events    eventHeap
	flows     []*flow // active fluid flows (fluid mode only)
	flowArena []flow  // backing store; cap is fixed so pointers stay stable
	doneBuf   []*flow // scratch for advanceFlows

	vms   []vmState
	ready []int // scoring worklist: VMs whose head task has its inputs

	// Per-task bookkeeping.
	missing      []int // crossing inputs not yet at the datacenter
	dcReadyTime  []float64
	dcReadyPred  []wf.TaskID
	hasDCPred    []bool
	times        []TaskTimes
	blames       []Blame
	doneCount    int
	finishedTask []bool
	xferCost     float64 // inter-provider per-byte surcharges accrued

	result Result // reused by collect()
}

func newEngineFromStatic(st *engineStatic) *engine {
	n := st.w.NumTasks()
	e := &engine{
		st:           st,
		missing:      make([]int, n),
		dcReadyTime:  make([]float64, n),
		dcReadyPred:  make([]wf.TaskID, n),
		hasDCPred:    make([]bool, n),
		times:        make([]TaskTimes, n),
		blames:       make([]Blame, n),
		finishedTask: make([]bool, n),
	}
	e.fit()
	return e
}

// fit sizes the buffers that depend on the bound schedule: one vmState
// per VM and a flow arena of the static's flow bound. It runs between
// executions only, when no flow pointer is live.
func (e *engine) fit() {
	if nv := e.st.s.NumVMs(); nv <= cap(e.vms) {
		e.vms = e.vms[:nv]
	} else {
		e.vms = make([]vmState, nv)
	}
	if cap(e.flowArena) < e.st.flowCap {
		e.flowArena = make([]flow, 0, e.st.flowCap)
	}
}

func newEngine(w *wf.Workflow, p *platform.Platform, s *plan.Schedule, weights []float64) (*engine, error) {
	st, err := newEngineStatic(w, p, s)
	if err != nil {
		return nil, err
	}
	e := newEngineFromStatic(st)
	if err := e.reset(weights); err != nil {
		return nil, err
	}
	return e, nil
}

// reset rewinds the engine to time zero with the given realized
// weights, reusing every buffer allocated by newEngineFromStatic.
func (e *engine) reset(weights []float64) error {
	if err := e.rewind(weights); err != nil {
		return err
	}
	e.now = 0
	e.seq = 0
	e.events = e.events[:0]
	e.flows = e.flows[:0]
	e.flowArena = e.flowArena[:0]
	e.doneCount = 0
	e.xferCost = 0
	for t := range e.times {
		e.dcReadyPred[t] = 0
		e.hasDCPred[t] = false
		e.times[t] = TaskTimes{}
		e.blames[t] = Blame{}
		e.finishedTask[t] = false
	}
	return nil
}

// rewind checks the weights and rewinds the state the event loop and
// the scoring pass (score.go) share: the VM table, the outstanding
// crossing inputs and the datacenter arrival times.
func (e *engine) rewind(weights []float64) error {
	for t, wt := range weights {
		if wt <= 0 || math.IsNaN(wt) || math.IsInf(wt, 0) {
			return fmt.Errorf("sim: task %d has invalid weight %v", t, wt)
		}
	}
	e.weights = weights
	s := e.st.s
	for i := range e.vms {
		e.vms[i] = vmState{cat: s.VMCats[i], queue: s.Order[i]}
	}
	copy(e.missing, e.st.missing0)
	clear(e.dcReadyTime)
	return nil
}

func (e *engine) push(ev event) {
	ev.seq = e.seq
	e.seq++
	e.events.push(ev)
}

// newFlow places f in the arena and returns a stable pointer. The
// arena capacity bounds the flows any run can create, so append never
// reallocates; the defensive overflow branch heap-allocates instead of
// invalidating existing pointers.
func (e *engine) newFlow(f flow) *flow {
	var p *flow
	if len(e.flowArena) < cap(e.flowArena) {
		e.flowArena = e.flowArena[:len(e.flowArena)+1]
		p = &e.flowArena[len(e.flowArena)-1]
	} else {
		p = new(flow)
	}
	// Copy through the pointer rather than returning &f: taking the
	// parameter's address would force a heap allocation at every call
	// site, arena hit or not.
	*p = f
	return p
}

// startFlow begins a data movement of size bytes. Zero-size flows
// complete synchronously via the caller's follow-up logic, so callers
// must not create them.
func (e *engine) startFlow(f *flow) {
	f.seq = e.seq
	e.seq++
	// Every flow crosses the VM↔DC link of the flow's VM; on a market
	// platform that means the VM provider's bandwidth, a fixed
	// inter-provider latency, and a per-byte transfer surcharge. All
	// three degenerate to the scalar model (latency 0, surcharge 0,
	// CatBandwidth == Bandwidth) on single-provider platforms.
	cat := e.vms[f.vm].cat
	e.xferCost += f.remaining * e.st.p.XferCost(cat)
	if !e.st.fluid {
		e.push(event{time: e.now + e.st.p.XferLat(cat) + f.remaining/e.st.p.CatBandwidth(cat), kind: evFlowDone, flow: f})
		return
	}
	e.flows = append(e.flows, f)
}

// assignRates implements max-min fair sharing of the datacenter
// bandwidth across active flows, each additionally capped by the
// per-VM link bandwidth.
func (e *engine) assignRates() {
	k := len(e.flows)
	if k == 0 {
		return
	}
	share := e.st.p.DCBandwidth / float64(k)
	rate := math.Min(e.st.p.Bandwidth, share)
	// If the per-link cap binds for every flow, the aggregate is under
	// the DC cap and everyone gets the link rate; otherwise the equal
	// DC share applies (all flows have the same cap, so max-min fair
	// sharing reduces to the minimum of the two).
	for _, f := range e.flows {
		f.rate = rate
	}
}

// advanceFlows moves fluid flows forward by dt and returns those that
// completed, preserving creation order for determinism. The returned
// slice is scratch, valid until the next call.
func (e *engine) advanceFlows(dt float64) []*flow {
	done := e.doneBuf[:0]
	remainingFlows := e.flows[:0]
	for _, f := range e.flows {
		f.remaining -= f.rate * dt
		if f.remaining <= 1e-9 {
			f.remaining = 0
			f.done = true
			done = append(done, f)
		} else {
			remainingFlows = append(remainingFlows, f)
		}
	}
	e.flows = remainingFlows
	e.doneBuf = done
	return done
}

// tryAdvance examines the head task of VM v and starts whatever phase
// can start now: booking, staging, or computing.
func (e *engine) tryAdvance(v int) {
	vm := &e.vms[v]
	if vm.next >= len(vm.queue) || vm.busy || vm.booting {
		return
	}
	t := vm.queue[vm.next]
	if e.missing[t] > 0 {
		return // inputs still on their way to the datacenter
	}
	if !vm.booked {
		// Book the VM now: its first task's data is at the datacenter.
		vm.booked = true
		vm.booting = true
		vm.bookTime = e.now
		vm.bootDone = e.now + e.st.p.CatBootTime(vm.cat)
		e.push(event{time: vm.bootDone, kind: evBootDone, vm: v})
		return
	}
	// VM is booted and idle: start staging (or compute directly).
	vm.busy = true
	e.times[t].StageStart = e.now
	e.blames[t] = e.blameFor(v, t)
	if e.st.stageSize[t] > 0 {
		e.startFlow(e.newFlow(flow{kind: flowStaging, vm: v, task: t, edge: -1, remaining: e.st.stageSize[t]}))
		return
	}
	e.startCompute(v, t)
}

// blameFor decides which constraint bound the start of task t on VM v.
func (e *engine) blameFor(v int, t wf.TaskID) Blame {
	vm := &e.vms[v]
	dataT := e.dcReadyTime[t]
	if vm.hasPrev {
		if vm.freeAt >= dataT || !e.hasDCPred[t] {
			return Blame{Kind: BlameVMBusy, Pred: vm.prevTask}
		}
		return Blame{Kind: BlameDataArrival, Pred: e.dcReadyPred[t]}
	}
	// First task on the VM: the boot always completes after the data
	// is at the datacenter (booking rule), so blame the data chain if
	// there is one.
	if e.hasDCPred[t] {
		return Blame{Kind: BlameDataArrival, Pred: e.dcReadyPred[t]}
	}
	return Blame{Kind: BlameNone}
}

func (e *engine) startCompute(v int, t wf.TaskID) {
	e.times[t].ComputeStart = e.now
	dur := e.weights[t] / e.st.p.Categories[e.vms[v].cat].Speed
	e.push(event{time: e.now + dur, kind: evComputeDone, vm: v, task: t})
}

func (e *engine) finishCompute(v int, t wf.TaskID) {
	vm := &e.vms[v]
	e.times[t].Finish = e.now
	e.finishedTask[t] = true
	e.doneCount++
	vm.busyTime += e.now - e.times[t].StageStart
	vm.busy = false
	vm.freeAt = e.now
	vm.prevTask = t
	vm.hasPrev = true
	if e.now > vm.end {
		vm.end = e.now
	}
	// Launch uploads for consumers on other VMs and external outputs.
	for ei, edge := range e.st.outEdges[t] {
		if e.st.s.TaskVM[edge.From] == e.st.s.TaskVM[edge.To] {
			continue // data stays local
		}
		if edge.Size == 0 {
			e.uploadArrived(v, edge)
			continue
		}
		e.startFlow(e.newFlow(flow{kind: flowUpload, vm: v, task: t, edge: ei, remaining: edge.Size}))
	}
	if out := e.st.extOut[t]; out > 0 {
		e.startFlow(e.newFlow(flow{kind: flowUpload, vm: v, task: t, edge: -1, remaining: out}))
	}
	vm.next++
	e.tryAdvance(v)
}

// uploadArrived records that edge's payload reached the datacenter and
// wakes the consumer's VM if the consumer became ready.
func (e *engine) uploadArrived(srcVM int, edge wf.Edge) {
	if e.now > e.vms[srcVM].end {
		e.vms[srcVM].end = e.now
	}
	t := edge.To
	e.missing[t]--
	if e.now >= e.dcReadyTime[t] {
		e.dcReadyTime[t] = e.now
		e.dcReadyPred[t] = edge.From
		e.hasDCPred[t] = true
	}
	if e.missing[t] == 0 {
		e.tryAdvance(e.st.s.TaskVM[t])
	}
}

func (e *engine) handleFlowDone(f *flow) {
	if f.kind == flowStaging {
		e.startCompute(f.vm, f.task)
		return
	}
	// Upload.
	if f.edge >= 0 {
		edges := e.st.outEdges[f.task]
		e.uploadArrived(f.vm, edges[f.edge])
		return
	}
	// External output: only extends the source VM's life.
	if e.now > e.vms[f.vm].end {
		e.vms[f.vm].end = e.now
	}
}

func (e *engine) run() (*Result, error) {
	n := e.st.w.NumTasks()
	for v := range e.vms {
		e.tryAdvance(v)
	}
	guard := 0
	maxSteps := e.st.maxSteps
	for e.doneCount < n || len(e.flows) > 0 || len(e.events) > 0 {
		guard++
		if guard > maxSteps {
			return nil, fmt.Errorf("sim: exceeded %d steps; schedule is livelocked", maxSteps)
		}
		var nextFixed float64 = math.Inf(1)
		if len(e.events) > 0 {
			nextFixed = e.events[0].time
		}
		if e.st.fluid && len(e.flows) > 0 {
			e.assignRates()
			nextFlow := math.Inf(1)
			for _, f := range e.flows {
				if c := f.remaining / f.rate; c < nextFlow {
					nextFlow = c
				}
			}
			if e.now+nextFlow < nextFixed {
				done := e.advanceFlows(nextFlow)
				e.now += nextFlow
				for _, f := range done {
					e.handleFlowDone(f)
				}
				continue
			}
			// A fixed event comes first: advance flows to that instant.
			if !math.IsInf(nextFixed, 1) {
				done := e.advanceFlows(nextFixed - e.now)
				e.now = nextFixed
				for _, f := range done {
					e.handleFlowDone(f)
				}
			}
		}
		if len(e.events) == 0 {
			if e.doneCount < n && len(e.flows) == 0 {
				return nil, errDeadlock(e.doneCount, n)
			}
			continue
		}
		ev := e.events.pop()
		if ev.time < e.now-1e-9 {
			return nil, fmt.Errorf("sim: time went backwards: %v -> %v", e.now, ev.time)
		}
		if ev.time > e.now {
			e.now = ev.time
		}
		switch ev.kind {
		case evBootDone:
			vm := &e.vms[ev.vm]
			vm.booting = false
			vm.freeAt = e.now
			e.tryAdvance(ev.vm)
		case evComputeDone:
			e.finishCompute(ev.vm, ev.task)
		case evFlowDone:
			e.handleFlowDone(ev.flow)
		}
	}
	if e.doneCount < n {
		return nil, errDeadlock(e.doneCount, n)
	}
	return e.collect(), nil
}

// errDeadlock reports a schedule whose per-VM orders wait on each other
// across VMs: only done of its n tasks can ever run.
func errDeadlock(done, n int) error {
	return fmt.Errorf("sim: deadlock with %d/%d tasks finished", done, n)
}

// collect assembles the engine's reused Result. Its slices alias the
// engine's buffers: valid until the engine is reset (one-shot entry
// points never reset, so their Results are stable).
func (e *engine) collect() *Result {
	res := &e.result
	*res = Result{Tasks: e.times, Blames: e.blames, VMs: res.VMs[:0]}
	firstBook := math.Inf(1)
	lastEvent := 0.0
	for i := range e.vms {
		vm := &e.vms[i]
		if !vm.booked {
			// A VM with no task never gets booked and costs nothing;
			// Validate prevents empty VMs, so this is defensive.
			continue
		}
		if vm.bookTime < firstBook {
			firstBook = vm.bookTime
		}
		if vm.end > lastEvent {
			lastEvent = vm.end
		}
		cost := e.st.p.VMCost(vm.cat, vm.bootDone, vm.end)
		res.VMs = append(res.VMs, VMUsage{
			Cat:      vm.cat,
			Book:     vm.bookTime,
			Start:    vm.bootDone,
			End:      vm.end,
			Cost:     cost,
			NumTasks: len(vm.queue),
			Busy:     vm.busyTime,
		})
	}
	if math.IsInf(firstBook, 1) {
		firstBook = 0
	}
	res.FirstBook = firstBook
	res.LastEvent = lastEvent
	res.Makespan = lastEvent - firstBook
	res.DCCost = e.st.p.DCCost(e.st.dcIn, e.st.dcOut, firstBook, lastEvent)
	res.XferCost = e.xferCost
	res.TotalCost = res.DCCost + res.VMCost() + res.XferCost
	return res
}
