package sched

import (
	"math"
	"slices"

	"budgetwf/internal/wf"
)

// The readiness index. A used VM that runs none of task t's
// predecessors sees t's fresh-VM inputs, so its candidate depends only
// on its category and its readyAt. With D the time t's last input
// reaches the datacenter (taskInputs.dcReady), on one category:
//
//   - every VM ready by D starts t at D, so all of them finish t at one
//     EFT, and the cost, the lifetime extension (EFT − readyAt)·c_h
//     plus terms of t alone, does not rise as readyAt rises;
//   - every VM ready after D starts t when it is ready, so the EFT does
//     not fall as readyAt rises.
//
// Both hold in floating point, because rounding is monotone and prices
// are not negative, as long as every term is finite: an infinite price
// or input volume makes some cost NaN, which no order survives. Under
// the insertion policy a VM's gaps break the order, and the state keeps
// no index.

// readiness is the index: the used VMs ordered by (category, readyAt,
// index), with their readyAt alongside. Category k's VMs are the run
// vms[bounds[k]:bounds[k+1]]. newState takes vms and bounds from the
// slab of taskVM and at from that of finish, so the index costs a plan
// no allocation of its own.
type readiness struct {
	vms    []int
	at     []float64
	bounds []int
}

// catVMs returns category k's used VMs and their readyAt, in order.
func (s *state) catVMs(k int) ([]int, []float64) {
	lo, hi := s.index.bounds[k], s.index.bounds[k+1]
	return s.index.vms[lo:hi], s.index.at[lo:hi]
}

// enter adds the new VM i, the highest index so far, at the end of the
// run of VMs of its category ready no later than it; the runs after it
// move up by one.
func (s *state) enter(i int) {
	x, k, at := &s.index, s.vms[i].cat, s.vms[i].readyAt
	used := x.bounds[len(x.bounds)-1]
	pos := x.bounds[k] + readyBy(x.at[x.bounds[k]:x.bounds[k+1]], at)
	copy(x.vms[pos+1:used+1], x.vms[pos:used])
	copy(x.at[pos+1:used+1], x.at[pos:used])
	x.vms[pos], x.at[pos] = i, at
	s.vms[i].at = pos - x.bounds[k]
	for j := k + 1; j < len(x.bounds); j++ {
		x.bounds[j]++
	}
}

// advance sets used VM i's readyAt to at, not earlier than it was, and
// moves the VM right to its new place in its category's run. The move
// is a few places at a tight budget, where nearly every host is ready
// after the data, and a third of the run at a looser one.
func (s *state) advance(i int, at float64) {
	old := s.vms[i].readyAt
	s.vms[i].readyAt = at
	if at == old {
		return
	}
	vms, ats := s.catVMs(s.vms[i].cat)
	pos := s.vms[i].at
	if pos >= len(vms) || vms[pos] != i {
		pos = readyBy(ats, math.Nextafter(old, math.Inf(-1)))
		for vms[pos] != i {
			pos++
		}
	}
	// end passes the entries that order before (at, i), probing the
	// first few one by one.
	end := pos + 1
	for end < len(vms) && end-pos <= 8 && (ats[end] < at || ats[end] == at && vms[end] < i) {
		end++
	}
	if end-pos > 8 {
		end += keyBefore(vms[end:], ats[end:], at, i)
	}
	copy(vms[pos:end-1], vms[pos+1:end])
	copy(ats[pos:end-1], ats[pos+1:end])
	vms[end-1], ats[end-1] = i, at
	s.vms[i].at = end - 1
}

// keyBefore returns how many entries of a run order before (at, i).
func keyBefore(vms []int, ats []float64, at float64, i int) int {
	lo, hi := 0, len(ats)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ats[m] < at || ats[m] == at && vms[m] < i {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// readyBy returns how many entries of a run are ready by at. The
// search halves a window whose base only moves forward, which compiles
// to a conditional move rather than an unpredictable branch.
func readyBy(ats []float64, at float64) int {
	base, n := 0, len(ats)
	if n == 0 {
		return 0
	}
	for n > 1 {
		half := n >> 1
		if ats[base+half] <= at {
			base += half
		}
		n -= half
	}
	if ats[base] <= at {
		base++
	}
	return base
}

// finite reports whether a selection of a task with these inputs and
// terms may read the index: every term is finite, and so is every used
// VM's readyAt (the last of each run is its largest). All are sums and
// products of non-negative values, so their sum is finite exactly when
// each of them is.
func (s *state) finite(in taskInputs, terms []catTerms) bool {
	x := in.missing + in.dcReady + in.srcCost
	for k, kt := range terms {
		x += kt.work + kt.chost + kt.out
		if _, ats := s.catVMs(k); len(ats) > 0 {
			x += ats[len(ats)-1]
		}
	}
	return x-x == 0
}

// hosts lays out the candidates of task t that a selection under
// allowance a reads, after prepare(t) returned in and terms, in the
// state's buffer: used VMs by index, then fresh VMs by category, as the
// scan enumerates them. only restricts them to one category (CG), and
// -1 keeps every category. When the state has no index or a term is not
// finite they are every host; otherwise they come from the index:
//
//   - each fresh VM;
//   - of the VMs that run a predecessor of t, visited in order of their
//     EFT floors (eftFloor) until a floor exceeds the earliest
//     affordable EFT so far, each one visited, evaluated in full: every
//     one left finishes strictly later than an affordable one kept;
//   - in each category, the last VM ready by D and the VMs of equal
//     cost below it: the cheapest of that group, at its one EFT;
//   - in each category, of the VMs ready after D, visited in readiness
//     order until one finishes later than the earliest affordable
//     candidate so far, the affordable ones and each new cheapest. The
//     first affordable one and its exact EFT ties are among them, and
//     when nothing is affordable every one is visited.
//
// They hold pickBest's answer on all candidates: the earliest
// affordable one, or the cheapest when nothing is affordable, with its
// exact ties, so that enumeration order settles it as in the scan. For
// every candidate that finishes before it they also hold one that
// finishes no later at no higher cost, which is all pickCache.repick
// reads to bound its interval. So pickBest, repick and the EFT fold of
// bestOfCategory over them answer as over every host, by construction;
// FuzzIndexedPickMatchesScan checks it field for field. Each used-VM
// placement counts in walked, and each full evaluation adds deg(t) to
// predEdges.
func (s *state) hosts(t wf.TaskID, in taskInputs, terms []catTerms, a float64, only int) (used, fresh []candidate) {
	buf := s.picked[:0]
	if s.index.vms == nil || !s.finite(in, terms) {
		buf = s.appendPlaced(buf, t, in, terms, only)
		s.picked = buf[:0]
		nFresh := len(terms)
		if only >= 0 {
			nFresh = 1
		}
		used, fresh = buf[:len(buf)-nFresh], buf[len(buf)-nFresh:]
		s.walked += len(used)
		for _, i := range s.g.onVM {
			if only < 0 || s.vms[i].cat == only {
				s.predEdges += len(s.g.from)
			}
		}
		return used, fresh
	}
	bound := infinite // the earliest EFT among affordable candidates so far
	for k, kt := range terms {
		if only < 0 || k == only {
			c := s.placeFresh(in, kt, k)
			if c.cost <= a && c.eft < bound {
				bound = c.eft
			}
			buf = append(buf, c)
		}
	}
	nFresh := len(buf)
	// The VMs that run a predecessor, in order of their EFT floors until
	// one's floor exceeds the bound: those left finish after it. The
	// floors wait, as candidates holding only vm and eft, after the
	// evaluated VMs, and each evaluation takes the place of the least.
	g := &s.g
	for p, i := range g.onVM {
		if only < 0 || s.vms[i].cat == only {
			buf = append(buf, candidate{vm: i, eft: s.eftFloor(t, in, p)})
		}
	}
	done := nFresh
	for ; done < len(buf); done++ {
		j := done
		for m := done + 1; m < len(buf); m++ {
			if buf[m].eft < buf[j].eft {
				j = m
			}
		}
		if buf[j].eft > bound {
			break
		}
		i := buf[j].vm
		buf[j] = buf[done]
		buf[done] = s.eval(t, i, s.vms[i].cat)
		if c := &buf[done]; c.cost <= a && c.eft < bound {
			bound = c.eft
		}
		s.walked++
		s.predEdges += len(g.from)
	}
	buf = buf[:done]
	for k, kt := range terms {
		if only >= 0 && k != only {
			continue
		}
		vms, ats := s.catVMs(k)
		split := readyBy(ats, in.dcReady)
		// keep appends VM i's candidate, noting its place j for advance.
		keep := func(i, j int, begin, eft, cost float64) {
			buf = append(buf, candidate{vm: i, cat: k, begin: begin, eft: eft, cost: cost, slot: -1})
			s.vms[i].at = j
		}
		// Ready by D: one EFT, and the cost falls as readyAt rises.
		first := true
		for j := split - 1; j >= 0; j-- {
			i := vms[j]
			if s.runsPred(i, t) {
				continue
			}
			begin, eft, cost := s.onVM(in, kt, i)
			s.walked++
			if first && eft > bound || !first && cost != buf[len(buf)-1].cost {
				break
			}
			if first && cost <= a && eft < bound {
				bound = eft
			}
			keep(i, j, begin, eft, cost)
			first = false
		}
		// Ready after D: the EFT rises with readyAt, so an unaffordable
		// VM is kept only when it is the cheapest of the walk so far
		// (cheaper, then enumeration order): one it drops is dearer than
		// one kept that finishes no later.
		lowCost, lowEFT, lowVM := infinite, 0.0, 0
		for j := split; j < len(vms); j++ {
			i := vms[j]
			if s.runsPred(i, t) {
				continue
			}
			begin, eft, cost := s.onVM(in, kt, i)
			s.walked++
			switch {
			case eft > bound:
			case cost <= a:
				bound = eft
				keep(i, j, begin, eft, cost)
				continue
			case cost < lowCost, cost == lowCost && eft == lowEFT && i < lowVM:
				lowCost, lowEFT, lowVM = cost, eft, i
				keep(i, j, begin, eft, cost)
				continue
			default:
				continue
			}
			break
		}
	}
	// Sort by VM: by insertion when the list is short, as it is but for
	// a task whose predecessors ran on many VMs.
	used = buf[nFresh:]
	if len(used) > 16 {
		slices.SortFunc(used, func(x, y candidate) int { return x.vm - y.vm })
	}
	for j := 1; j < len(used); j++ {
		if used[j].vm < used[j-1].vm {
			c, m := used[j], j
			for ; m > 0 && used[m-1].vm > c.vm; m-- {
				used[m] = used[m-1]
			}
			used[m] = c
		}
	}
	// The fresh candidates lead the buffer; the scan puts them last.
	if cap(buf) > cap(s.picked) {
		s.picked = buf[:0]
	}
	return used, buf[:nFresh]
}
