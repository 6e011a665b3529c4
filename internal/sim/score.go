package sim

import "math"

// score computes what run would report as Result.Makespan and
// Result.TotalCost — and how many VMs it would book — in one forward
// pass over the bound schedule, after a rewind. It is exact only where
// st.exact holds: without bandwidth sharing every duration is known
// when its phase starts, so a task's times follow from its VM's
// previous task and its inputs' arrivals alone, and every fold below
// (a VM's end, a task's last arrival, the first booking) is a max or a
// min, which no processing order can change. The arithmetic is the
// event loop's, operand for operand; run is the oracle in score_test.go.
func (e *Exec) score() (makespan, cost float64, booked int, err error) {
	st, p := e.st, e.st.p
	taskVM := st.s.TaskVM
	if cap(e.ready) < len(e.VMs) {
		e.ready = make([]int, 0, len(e.VMs))
	}
	ready := e.ready[:0]
	for v := range e.VMs {
		if q := e.VMs[v].Queue; len(q) > 0 && e.missing[q[0]] == 0 {
			ready = append(ready, v)
		}
	}
	done := 0
	for len(ready) > 0 {
		v := ready[len(ready)-1]
		ready = ready[:len(ready)-1]
		vm := &e.VMs[v]
		speed := p.Categories[vm.Cat].Speed
		lat, bw := p.XferLat(vm.Cat), p.CatBandwidth(vm.Cat)
		for ; vm.Next < len(vm.Queue); vm.Next++ {
			t := vm.Queue[vm.Next]
			if e.missing[t] > 0 {
				break // a later pop resumes here, once t's inputs are in
			}
			now := vm.freeAt
			if !vm.Booked {
				// Booked the instant the first task's data is at the
				// datacenter; the task starts when the boot ends.
				vm.Booked = true
				vm.BookTime = e.dcReadyTime[t]
				vm.BootDone = vm.BookTime + p.CatBootTime(vm.Cat)
				now = vm.BootDone
			} else if at := e.dcReadyTime[t]; at > now {
				now = at
			}
			if size := st.stageSize[t]; size > 0 {
				now = now + lat + size/bw
			}
			now += e.weights[t] / speed
			vm.freeAt = now
			if now > vm.End {
				vm.End = now
			}
			for _, ei := range st.out.of(t) {
				edge := st.edges[ei]
				to := edge.To
				if taskVM[to] == v {
					continue // data stays local
				}
				at := now
				if edge.Size != 0 {
					at = now + lat + edge.Size/bw
				}
				if at > vm.End {
					vm.End = at
				}
				if at > e.dcReadyTime[to] {
					e.dcReadyTime[to] = at
				}
				e.missing[to]--
				if u := &e.VMs[taskVM[to]]; e.missing[to] == 0 && u.Queue[u.Next] == to {
					ready = append(ready, taskVM[to])
				}
			}
			if out := st.w.TasksView()[t].ExternalOut; out > 0 {
				if at := now + lat + out/bw; at > vm.End {
					vm.End = at
				}
			}
			done++
		}
	}
	if n := st.w.NumTasks(); done < n {
		return 0, 0, 0, errDeadlock(done, n)
	}
	// collect's arithmetic: VM costs summed in VM-index order.
	firstBook, lastEvent, vmCost := math.Inf(1), 0.0, 0.0
	for i := range e.VMs {
		vm := &e.VMs[i]
		if !vm.Booked {
			continue
		}
		booked++
		if vm.BookTime < firstBook {
			firstBook = vm.BookTime
		}
		if vm.End > lastEvent {
			lastEvent = vm.End
		}
		vmCost += p.VMCost(vm.Cat, vm.BootDone, vm.End)
	}
	if math.IsInf(firstBook, 1) {
		firstBook = 0
	}
	dcCost := p.DCCost(st.dcIn, st.dcOut, firstBook, lastEvent)
	return lastEvent - firstBook, dcCost + vmCost, booked, nil
}
