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
// or input volume makes some cost NaN, which no order survives.

// readiness is the index: the used VMs ordered by (category, readyAt,
// index), with their readyAt alongside. Category k's VMs are the run
// vms[bounds[k]:bounds[k+1]], of which tctfHost notes in split[k] how
// many are ready by the data. newState takes vms, split and bounds from
// the slab of taskVM and at from that of finish, so the index costs a
// plan no allocation of its own.
type readiness struct {
	vms, split []int
	at         []float64
	bounds     []int
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
// -1 keeps every category. When a term is not finite they are every
// host; otherwise they come from the index:
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
	if !s.finite(in, terms) {
		all := s.placeAll(t, in, terms, only)
		nFresh := len(terms)
		if only >= 0 {
			nFresh = 1
		}
		return all[:len(all)-nFresh], all[len(all)-nFresh:]
	}
	buf := s.picked[:0]
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
			buf = append(buf, candidate{vm: i, cat: k, begin: begin, eft: eft, cost: cost})
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

// placeAll places task t on every host, after prepare(t) returned in
// and terms, in the state's buffer and in enumeration order (used VMs
// by index, then fresh VMs by category), restricted to category only
// unless it is -1, and counts the placements in walked and predEdges.
func (s *state) placeAll(t wf.TaskID, in taskInputs, terms []catTerms, only int) []candidate {
	buf := s.appendPlaced(s.picked[:0], t, in, terms, only)
	s.picked = buf[:0]
	for i := range s.vms {
		if only < 0 || s.vms[i].cat == only {
			s.walked++
			if s.runsPred(i, t) {
				s.predEdges += len(s.g.from)
			}
		}
	}
	return buf
}

// tctfHost is pickTCTF's choice among every host of task t under
// sub-budget S, BDT's selection, read from the readiness index. A
// selection the index cannot serve (a term or S is not finite) places
// every host and folds pickTCTF over them. Otherwise the VMs that run a
// predecessor of t and the fresh VMs are placed, and in each category's
// run of the other used VMs, where the EFT does not fall as readyAt
// rises:
//
//   - ECT_min and ECT_max are the EFTs of the run's first and last VM
//     that runs no predecessor;
//   - among the VMs ready by D the cost falls as readyAt rises, so the
//     group's last is its cheapest, and the first within S, found by
//     bisection, has its highest TCTF: it and the VMs after it of equal
//     TCTF are placed;
//   - the VMs ready after D are billed about t's work, within the band
//     billedBand bounds. Their costs are scanned for ct_min only when
//     the band's lower cost is below ct_min so far and within S. They
//     are placed in readiness order until the TCTF that the VM's EFT
//     would have at the band's highest affordable cost falls below the
//     best TCTF so far: each VM left finishes no earlier and costs no
//     more, so its TCTF is lower still. Exact ties stop nothing.
//
// When ct_min exceeds S nothing is affordable, and the eager fallback,
// the fastest host under less, is pickBest's over the hosts an infinite
// allowance reads. Ties on TCTF fall to less and then to enumeration
// order, as in the fold over every host; FuzzTCTFMatchesScan checks the
// answer field for field.
func (s *state) tctfHost(t wf.TaskID, S float64) candidate {
	in, terms := s.prepare(t)
	if !s.finite(in, terms) || S-S != 0 {
		return pickTCTF(s.placeAll(t, in, terms, -1), S)
	}
	g := &s.g
	buf := s.picked[:0]
	for k, kt := range terms {
		buf = append(buf, s.placeFresh(in, kt, k))
	}
	for _, i := range g.onVM {
		buf = append(buf, s.eval(t, i, s.vms[i].cat))
	}
	s.walked += len(g.onVM)
	s.predEdges += len(g.onVM) * len(g.from)
	ectMin, ectMax, ctMin := infinite, -infinite, infinite
	for _, c := range buf {
		ectMin, ectMax, ctMin = min(ectMin, c.eft), max(ectMax, c.eft), min(ctMin, c.cost)
	}
	split := s.index.split
	for k, kt := range terms {
		vms, ats := s.catVMs(k)
		split[k] = readyBy(ats, in.dcReady)
		first := s.skipPred(vms, t, 0, 1)
		if first == len(vms) {
			continue
		}
		_, eft, _ := s.onVM(in, kt, vms[first])
		ectMin = min(ectMin, eft)
		_, eft, _ = s.onVM(in, kt, vms[s.skipPred(vms, t, len(vms)-1, -1)])
		ectMax = max(ectMax, eft)
		s.walked += 2
		if j := s.skipPred(vms, t, split[k]-1, -1); j >= 0 {
			_, _, cost := s.onVM(in, kt, vms[j])
			ctMin = min(ctMin, cost)
			s.walked++
		}
	}
	for k, kt := range terms {
		vms, ats := s.catVMs(k)
		if split[k] == len(vms) {
			continue
		}
		lo, _ := billedBand(kt.work, ats[len(ats)-1])
		if c := kt.charge(in, lo); c >= ctMin || c > S {
			continue
		}
		for j := split[k]; j < len(vms); j++ {
			r := ats[j]
			if c := kt.charge(in, r+kt.work-r); c < ctMin && !s.runsPred(vms[j], t) {
				ctMin = c
			}
		}
		s.walked += len(vms) - split[k]
	}
	if !(ctMin <= S) {
		used, fresh := s.hosts(t, in, terms, infinite, -1)
		return pickBest(used, fresh, infinite)
	}

	best, bestT := candidate{}, -1.0 // every affordable TCTF is at least 0
	consider := func(c candidate, v float64) {
		if v > bestT || v == bestT && ahead(&c, &best) {
			best, bestT = c, v
		}
	}
	value := func(eft, cost float64) float64 {
		return tctfValue(candidate{eft: eft, cost: cost}, S, ctMin, ectMin, ectMax)
	}
	for _, c := range buf {
		if c.cost <= S {
			consider(c, value(c.eft, c.cost))
		}
	}
	for k, kt := range terms {
		vms, ats := s.catVMs(k)
		eftD := in.dcReady + kt.work
		lo, hi := 0, split[k]
		for lo < hi {
			m := int(uint(lo+hi) >> 1)
			if kt.charge(in, eftD-ats[m]) <= S {
				hi = m
			} else {
				lo = m + 1
			}
		}
		for j := s.skipPred(vms, t, lo, 1); j < split[k]; j = s.skipPred(vms, t, j+1, 1) {
			begin, eft, cost := s.onVM(in, kt, vms[j])
			s.walked++
			v := value(eft, cost)
			if v < bestT {
				break
			}
			consider(candidate{vm: vms[j], cat: k, begin: begin, eft: eft, cost: cost}, v)
		}
	}
	for k, kt := range terms {
		vms, ats := s.catVMs(k)
		if split[k] == len(vms) {
			continue
		}
		lo, hi := billedBand(kt.work, ats[len(ats)-1])
		if kt.charge(in, lo) > S {
			continue
		}
		dearest := min(kt.charge(in, hi), S)
		for j := s.skipPred(vms, t, split[k], 1); j < len(vms); j = s.skipPred(vms, t, j+1, 1) {
			begin, eft, cost := s.onVM(in, kt, vms[j])
			s.walked++
			if value(eft, dearest) < bestT {
				break
			}
			if cost <= S {
				consider(candidate{vm: vms[j], cat: k, begin: begin, eft: eft, cost: cost}, value(eft, cost))
			}
		}
	}
	return best
}

// skipPred returns the first place from j on, stepping by step, whose
// VM in the run vms runs no predecessor of t: -1 or len(vms) when none.
func (s *state) skipPred(vms []int, t wf.TaskID, j, step int) int {
	for j >= 0 && j < len(vms) && s.runsPred(vms[j], t) {
		j += step
	}
	return j
}

// ahead reports whether candidate c comes before b among candidates of
// one score: by less, then in enumeration order (used VMs by index,
// then fresh VMs by category).
func ahead(c, b *candidate) bool {
	switch {
	case less(*c, *b):
		return true
	case less(*b, *c):
		return false
	case c.vm >= 0:
		return c.vm < b.vm
	}
	return c.cat < b.cat
}

// billedBand bounds the time billed to a used VM ready at r > D, in
// [0, last], for a task of work w: fl(fl(r+w) − r), where the task
// starts when the VM is ready. With u = 2⁻⁵³ and E = last + w, the sum
// e = fl(r+w) is (r+w)(1+δ), |δ| ≤ u (exact when subnormal), and
// e ≥ r, so the billed time fl(e − r) lies within u·(e − r) of
// e − r = w + δ(r+w), and as w ≤ E,
//
//	|fl(e − r) − w| ≤ uE + u(w + uE) ≤ (2+u)·uE.
//
// The margin m = fl(2⁻⁵⁰·fl(E)) is at least 8uE(1−u) − 2⁻¹⁰⁷⁵ (the
// product is exact unless subnormal). When E < 2⁻¹⁰²² both sums are
// exact and the billed time is w; otherwise 2⁻¹⁰⁷⁵ ≤ uE, so
// m ≥ (7−8u)·uE, and the bounds, each rounded once,
//
//	fl(w + m) ≥ (w + m)(1−u) ≥ w − uE + (7−8u)(1−u)·uE > w + (2+u)·uE
//	fl(w − m) ≤ (w − m)(1+u) ≤ w + uE − (7−8u)·uE < w − (2+u)·uE
//
// hold the billed time between them (the lower one is taken at least 0,
// which the billed time is too).
func billedBand(w, last float64) (lo, hi float64) {
	m := 0x1p-50 * (last + w)
	return max(0, w-m), w + m
}
