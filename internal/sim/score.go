package sim

import (
	"math"

	"budgetwf/internal/wf"
)

// score computes what run would report as Result.Makespan and
// Result.TotalCost — and how many VMs it would book — in one forward
// pass over the bound schedule, after a rewind. It is exact only where
// st.exact holds: without bandwidth sharing every duration is known
// when its phase starts, so a task's times follow from its VM's
// previous task and its inputs' arrivals alone. run is the oracle in
// score_test.go.
func (e *Exec) score() (makespan, cost float64, booked int, err error) {
	order := e.passOrder()
	if n := len(e.st.s.TaskVM); len(order) < n {
		return 0, 0, 0, errDeadlock(len(order), n)
	}
	e.scoreVMs = e.scoreTable(e.scoreVMs, 0)
	e.pass(e.scoreVMs, order, e.st.s.TaskVM, e.dcReadyTime, math.Inf(1), 0, math.Inf(1), nil)
	makespan, cost, booked = e.collectScore()
	return makespan, cost, booked, nil
}

// scoreVM is the scoring pass's view of a VM: what the makespan and the
// cost read, and no pointer, so that ScoreMove copies a table of them
// as plain memory.
type scoreVM struct {
	cat                             int
	booked                          bool
	bookTime, bootDone, end, freeAt float64
}

// scoreTable returns vms holding the bound schedule's VMs, unbooked,
// with room for at least room of them: a Runner grows it once.
func (e *Exec) scoreTable(vms []scoreVM, room int) []scoreVM {
	s := e.st.s
	if c := max(s.NumVMs(), room); cap(vms) < c {
		vms = make([]scoreVM, 0, c)
	}
	vms = vms[:0]
	for _, cat := range s.VMCats {
		vms = append(vms, scoreVM{cat: cat})
	}
	return vms
}

// pass runs the tasks of order, which must be a topological order of
// the DAG and of every VM's order under taskVM, on the VM table vms,
// keeping each task's finish time in fin. Each task pulls its crossing
// inputs in edge-index order: an input's arrival at the datacenter is
// folded into its source VM's End and the task's data-ready time, and
// its size into the staging volume, summed in bind's order. Then:
// start = the boot's end on a VM's first task, else max(freeAt,
// dataReady); staging adds XferLat + stageSize/CatBandwidth; compute
// adds w/speed. The arithmetic is the event loop's, operand for
// operand, and every fold is a max or a min, so any such order gives
// the same bits. It returns first and last as they stand and how many
// tasks of order ran.
//
// first and last carry the earliest booking and the latest VM End so
// far. The pass stops, returning false, once last − first reaches
// bound: last only grows, first only shrinks and rounded subtraction
// is monotone, so the finished makespan would reach bound too. With a
// tail it also stops, last − first still short of bound, once fin[u] +
// tail[u], less the rounding margin proved at moveCheckpoint.buildTail,
// minus first reaches bound; that needs order to run to ListT's end and
// tail[u] to bound the work after u (ScoreMove's). Score passes none.
func (e *Exec) pass(vms []scoreVM, order []wf.TaskID, taskVM []int, fin []float64, first, last, bound float64, tail []float64) (float64, float64, int, bool) {
	st, p := e.st, e.st.p
	tasks := st.w.TasksView()
	for i, u := range order {
		v := taskVM[u]
		stage, ready := tasks[u].ExternalIn, 0.0
		for _, ei := range st.in.Of(u) {
			edge := &st.edges[ei]
			sv := taskVM[edge.From]
			if sv == v {
				continue // data stays local
			}
			stage += edge.Size
			src := &vms[sv]
			at := fin[edge.From]
			if edge.Size != 0 {
				at = at + p.XferLat(src.cat) + edge.Size/p.CatBandwidth(src.cat)
			}
			if at > src.end {
				src.end = at
			}
			if at > last {
				last = at
			}
			if at > ready {
				ready = at
			}
		}
		vm := &vms[v]
		lat, bw := p.XferLat(vm.cat), p.CatBandwidth(vm.cat)
		now := vm.freeAt
		if !vm.booked {
			// Booked the instant the first task's data is at the
			// datacenter; the task starts when the boot ends.
			vm.booked, vm.bookTime = true, ready
			vm.bootDone = ready + p.CatBootTime(vm.cat)
			now = vm.bootDone
			if ready < first {
				first = ready
			}
		} else if ready > now {
			now = ready
		}
		if stage > 0 {
			now = now + lat + stage/bw
		}
		now += e.weights[u] / p.Categories[vm.cat].Speed
		vm.freeAt, fin[u] = now, now
		if now > vm.end {
			vm.end = now
		}
		if out := tasks[u].ExternalOut; out > 0 {
			if at := now + lat + out/bw; at > vm.end {
				vm.end = at
			}
		}
		if vm.end > last {
			last = vm.end
		}
		if last-first >= bound {
			return first, last, i + 1, false
		}
		if tail != nil {
			// The margin only lowers lb: test without it first. At
			// most len(order)-1-i tasks follow u on any path.
			if lb := now + tail[u]; lb-first >= bound {
				if lb -= lb * (float64(len(order)-i+1) * 0x1p-52); lb-first >= bound {
					return first, last, i + 1, false
				}
			}
		}
	}
	return first, last, len(order), true
}

// collectScore is collect's arithmetic over the VM table: VM costs
// summed in VM-index order, unbooked VMs skipped.
func (e *Exec) collectScore() (makespan, cost float64, booked int) {
	p := e.st.p
	firstBook, lastEvent, vmCost := math.Inf(1), 0.0, 0.0
	for i := range e.scoreVMs {
		vm := &e.scoreVMs[i]
		if !vm.booked {
			continue
		}
		booked++
		if vm.bookTime < firstBook {
			firstBook = vm.bookTime
		}
		if vm.end > lastEvent {
			lastEvent = vm.end
		}
		vmCost += p.VMCost(vm.cat, vm.bootDone, vm.end)
	}
	if math.IsInf(firstBook, 1) {
		firstBook = 0
	}
	dcCost := p.DCCost(e.st.dcIn, e.st.dcOut, firstBook, lastEvent)
	return lastEvent - firstBook, dcCost + vmCost, booked
}

// passOrder returns the bound schedule's pass order, worked out once
// per bind in O(n + e): ListT where it is a topological permutation of
// every task that each VM's order follows — what every planner binds —
// else Kahn's order over the DAG plus each VM's chain, which falls
// short of n tasks exactly when the per-VM orders deadlock. It borrows
// the engine's missing and the static's pos as scratch.
func (e *Exec) passOrder() []wf.TaskID {
	st := e.st
	if st.ordered {
		return st.order
	}
	st.ordered = true
	s, rank := st.s, e.missing
	st.listTopo = len(s.ListT) == len(rank)
	if st.listTopo {
		for t := range rank {
			rank[t] = -1
		}
		for i, t := range s.ListT {
			if t < 0 || int(t) >= len(rank) || rank[t] >= 0 {
				st.listTopo = false
				break
			}
			rank[t] = i
		}
	}
	for i := 0; st.listTopo && i < len(st.edges); i++ {
		st.listTopo = rank[st.edges[i].From] < rank[st.edges[i].To]
	}
	follows := st.listTopo
	for _, o := range s.Order {
		for i := 1; follows && i < len(o); i++ {
			follows = rank[o[i-1]] < rank[o[i]]
		}
	}
	if follows {
		st.order = s.ListT
		return st.order
	}
	indeg, pos := e.missing, st.pos
	for t := range indeg {
		indeg[t] = len(st.in.Of(wf.TaskID(t)))
	}
	for _, o := range s.Order {
		for i, t := range o {
			pos[t] = i
			if i > 0 {
				indeg[t]++
			}
		}
	}
	if cap(st.orderBuf) < len(indeg) {
		st.orderBuf = make([]wf.TaskID, 0, len(indeg))
	}
	order := st.orderBuf[:0]
	for t, d := range indeg {
		if d == 0 {
			order = append(order, wf.TaskID(t))
		}
	}
	release := func(t wf.TaskID) {
		if indeg[t]--; indeg[t] == 0 {
			order = append(order, t)
		}
	}
	for i := 0; i < len(order); i++ {
		t := order[i]
		for _, ei := range st.out.Of(t) {
			release(st.edges[ei].To)
		}
		if o := s.Order[s.TaskVM[t]]; pos[t]+1 < len(o) {
			release(o[pos[t]+1])
		}
	}
	st.order = order
	return order
}
