package sched

import (
	"fmt"
	"math"
	"slices"

	"budgetwf/internal/obs"
	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/wf"
)

// minMinPlan is the shared MIN-MIN loop. MIN-MIN, the classical list
// scheduler, repeatedly picks among all ready tasks the (task, host)
// pair with the smallest earliest finish time. MIN-MINBUDG (Algorithm
// 3) filters each task's candidate hosts by its allowance B_T + pot,
// from the budget decomposition of Algorithm 1, before the min-min
// selection. A nil info plans budget-blind (infinite allowance): that
// is MIN-MIN, exactly how the paper uses it as a baseline ("given an
// infinite initial budget, MIN-MIN ... give[s] the same schedule as
// MIN-MINBUDG", §V-B).
//
// A naive implementation re-evaluates every (ready task, host) pair
// each round: O(n² · p · deg). This one keeps nothing per (task, host)
// pair. It keeps each ready task's last two picks, with the invariant
// that a pickCache holding a pick has pickBest's answer on the task's
// candidates for every allowance inside its interval; the second one
// catches the pot swinging an allowance back across a cost. Each round
// changes exactly one VM's availability (the one just assigned to,
// possibly freshly provisioned), so a round folds that VM's new
// candidate into every cache, and re-scans a task only when neither
// pick holds — the booked VM's candidate may displace a pick, or the
// task's allowance B_T + pot left its interval — and the task could
// win the round. A task whose floor, or a bound its caches keep
// (pickCache.bound), already finishes after the round's best pick so
// far cannot win, so its re-scan waits; a pick whose VM was booked
// becomes such a bound rather than nothing. A re-scan reads the
// candidates the readiness index yields (state.hosts), laid out in
// one buffer reused for the whole plan: eval's predecessor pass runs
// once (state.prepare), a VM that runs a predecessor takes a full eval
// only when its EFT floor is not beaten by an affordable candidate
// already found, each category costs O(log p) to find the VMs ready by
// the task's data, and every VM the walk visits is placed in O(1) — in
// each category the last one ready by the data with its cost ties, and
// those ready later up to the first affordable one, all of them only
// when nothing is affordable. The booked VM's candidate is evaluated
// only for a task whose caches it can move (pickCache.unmovedBy), in
// O(deg). A round therefore costs O(ready) to compare picks and skip
// the booked VM, O(deg) per cache it moves, plus the re-scans, and a
// plan holds O(n + p) memory. On the paper's
// families at n = 1000 (seed 1), 0.3–0.7 % of MIN-MIN's task visits
// re-scan, 0.3–1.3 % of MIN-MINBUDG's at the medium budget, and 16–45 %
// at the low one: there nearly every pick is a fallback, and one whose
// VM another task books for a later, no cheaper candidate is dropped.
// A traced plan records the counts on its span (rescans, deferred,
// walked, the used-VM placements the re-scans evaluated, and
// predEdges, the predecessor edges their full evaluations read).
// TestMinMinFastMatchesReference* pins the plans against the naive
// loop on plain eval, TestPlaceMatchesEval the O(1) placement against
// eval, TestPickCacheMatchesPickBest the cache against pickBest, and
// FuzzIndexedPickMatchesScan a re-scan from the index against one over
// every host.
func minMinPlan(w *wf.Workflow, p *platform.Platform, info *BudgetInfo, opt Options) (*plan.Schedule, error) {
	ctx, err := newContextOpt(w, p, opt)
	if err != nil {
		return nil, err
	}
	st := newState(ctx, false)
	n := w.NumTasks()

	// Ready-set maintenance via remaining-predecessor counters. ready
	// lists the ready tasks by ID, the order in which a round visits
	// them, so that the first of equal picks wins as in the naive loop.
	// A task that becomes ready records its floor, a lower bound on the
	// EFT of every candidate it has: no host starts it before its last
	// predecessor finishes (the data reaches the datacenter later, and a
	// VM that ran the predecessor is busy until then), nor computes it
	// in less than fast, its time on the fastest category. fast is NaN
	// when one of the task's inputs or terms is not finite, where a
	// candidate may have a NaN metric.
	remaining := make([]int, n)
	ready := make([]wf.TaskID, 0, n)
	picks := make([][2]pickCache, n)
	type readyTask struct{ floor, fast float64 }
	rt := make([]readyTask, n)
	fastest := 0.0
	for _, c := range p.Categories {
		fastest = max(fastest, c.Speed)
	}
	setReady := func(t wf.TaskID) {
		i, _ := slices.BinarySearch(ready, t)
		ready = slices.Insert(ready, i, t)
		last := 0.0
		for _, e := range ctx.pred[t] {
			last = max(last, st.finish[e.From])
		}
		fast := ctx.cons[t] / fastest
		rt[t].floor = last + fast
		in, terms := st.prepare(t)
		x := in.missing + in.dcReady + in.srcCost
		for _, kt := range terms {
			x += kt.work + kt.chost + kt.out
		}
		rt[t].fast = fast + (x - x)
	}
	for t := 0; t < n; t++ {
		remaining[t] = w.NumPred(wf.TaskID(t))
		if remaining[t] == 0 {
			setReady(wf.TaskID(t))
		}
	}
	// repick re-scans t's candidates, laid out used VMs then fresh ones.
	repick := func(e *pickCache, t wf.TaskID, allowance float64) {
		in, terms := st.prepare(t)
		used, fresh := st.hosts(t, in, terms, allowance, -1)
		e.repick(used, fresh, allowance)
	}

	account := optPot{disabled: opt.DisablePot}
	listT := make([]wf.TaskID, 0, n)
	totalCost := 0.0
	var traced []candidate
	rescans, deferred := 0, 0
	// booked is the VM the last round assigned to, and bookedAt its new
	// readiness: each ready task folds its candidate there into its
	// caches before it competes (newly ready tasks, scanned against the
	// state after the assignment, hold none). The candidate finishes no
	// earlier than bookedAt plus the task's fast, and a cache that no
	// such candidate moves is skipped.
	booked, bookedAt := -1, 0.0
	for len(listT) < n {
		if err := opt.stopErr(); err != nil {
			return nil, err
		}
		bestTask := wf.TaskID(-1)
		var bestCand candidate
		var bestAllowance float64
		for _, t := range ready {
			e, alt := &picks[t][0], &picks[t][1]
			if lb := bookedAt + rt[t].fast; booked >= 0 && !(lb-lb == 0 && e.unmovedBy(booked, lb) && alt.unmovedBy(booked, lb)) {
				c := st.eval(t, booked, st.vms[booked].cat)
				e.refresh(c)
				alt.refresh(c)
			}
			allowance := infinite
			if info != nil {
				allowance = account.allowance(info.Shares[t])
			}
			switch {
			case e.holds(allowance):
			case alt.holds(allowance):
				*e, *alt = *alt, *e
			case bestTask >= 0 && max(rt[t].floor, e.bound(allowance), alt.bound(allowance)) > bestCand.eft:
				// t cannot win this round: its re-scan waits for a
				// round where it can.
				deferred++
				continue
			default:
				if e.state == cachePick {
					*alt = *e
				}
				repick(e, t, allowance)
				rescans++
			}
			c := e.c
			if bestTask < 0 || less(c, bestCand) {
				bestTask, bestCand, bestAllowance = t, c, allowance
			}
		}
		if bestTask < 0 {
			// Cannot happen on a validated DAG; defensive.
			return nil, errNoReadyTask(w.Name, len(listT), n)
		}
		if opt.span != nil {
			// The winning task's candidates are exactly what the
			// min-min selection saw this round.
			traced = st.appendCandidates(traced[:0], bestTask)
			traceCandidates(opt.span, traced, bestTask, bestAllowance)
		}
		vmIdx := st.assign(bestTask, bestCand)
		totalCost += bestCand.cost
		if info != nil {
			account.settle(bestAllowance, bestCand.cost)
		}
		if opt.span != nil {
			if info != nil {
				traceGuard(opt.span, bestTask, bestCand, bestAllowance, account.pot.value)
			}
			tracePlace(opt.span, bestTask, bestCand)
		}
		i, _ := slices.BinarySearch(ready, bestTask)
		ready = slices.Delete(ready, i, i+1)
		listT = append(listT, bestTask)
		booked, bookedAt = vmIdx, st.vms[vmIdx].readyAt
		for _, e := range ctx.succ[bestTask] {
			remaining[e.To]--
			if remaining[e.To] == 0 {
				setReady(e.To)
			}
		}
	}
	if opt.span != nil {
		opt.span.Set(obs.Int("rescans", rescans), obs.Int("deferred", deferred), obs.Int("walked", st.walked), obs.Int("predEdges", st.predEdges))
	}
	out := st.extract(listT)
	out.EstCost = totalCost + initSpent(out, p)
	if info != nil {
		out.EstCost += info.DCReserve
	}
	return out, nil
}

// pickCache is what one ready task knows of pickBest's answer on its
// candidates, kept across rounds for an interval of allowances: lo ≤ a,
// and a < hi when capped. It is in one of three states:
//
//   - cacheEmpty, the zero value: it knows nothing, so a task that has
//     just become ready is scanned.
//   - cachePick: c is pickBest's answer for every allowance in the
//     interval. For a feasible pick lo is its cost, and hi the lowest
//     cost among the candidates that would beat it, all of them too
//     expensive (capped is false when there are none). For a fallback,
//     nothing affordable, lo is −∞ and hi the cheapest cost, where the
//     first candidate turns affordable.
//   - cacheBound: a feasible pick whose VM has been booked since, kept
//     as a lower bound. c.vm is that VM and lo the cost of its current
//     candidate, so under any allowance in the interval something is
//     affordable and pickBest does not fall back. Below hi no candidate
//     that beat the lost pick is affordable, and c.eft is the lost
//     pick's EFT lowered to that of every candidate folded in since, so
//     pickBest's answer finishes no earlier than c.eft.
//
// A keyed heap over the picks would not do for MIN-MINBUDG: the pot
// moves every allowance every round, so what has to be re-checked is
// whether an allowance left its interval.
type pickCache struct {
	c      candidate
	lo, hi float64
	capped bool
	state  cacheState
}

type cacheState uint8

const (
	cacheEmpty cacheState = iota
	cachePick
	cacheBound
)

// holds reports whether the cached pick is still pickBest's answer
// under allowance a. A NaN allowance fails both bounds.
func (e *pickCache) holds(a float64) bool {
	return e.state == cachePick && a >= e.lo && (!e.capped || a < e.hi)
}

// bound is a lower bound on the EFT of pickBest's answer under an
// allowance a the cache does not hold for. A cacheBound gives its
// bound inside its interval. Below a pick's lo, when the pick holds
// there, no candidate affordable at lo beats the pick; every candidate
// affordable under a was affordable at lo, and a fallback under a
// costs at most the pick, so none finishes before the pick does.
// Elsewhere it knows none: −∞.
func (e *pickCache) bound(a float64) float64 {
	// x is the allowance held against the cap: a inside a cacheBound's
	// interval, lo below a pick's.
	x := e.lo
	switch {
	case e.state == cacheBound && a >= e.lo:
		x = a
	case e.state != cachePick || !(a < e.lo):
		return -infinite
	}
	if e.capped && !(x < e.hi) {
		return -infinite
	}
	return e.c.eft
}

// repick scans a task's candidates — those on used VMs, then the fresh
// ones — with pickBest and records the interval over which its answer
// stands. A feasible pick is beaten exactly by the candidates that
// finish earlier: on an EFT tie less prefers the cheaper, and every
// candidate that beats the pick was too expensive, so costs more. A
// NaN metric breaks the order the bounds rely on (a category priced at
// +Inf makes a zero-size edge's upload cost 0·∞), so a task with one
// among its candidates where it could matter is re-scanned every
// round, as the naive loop would.
func (e *pickCache) repick(used, fresh []candidate, a float64) {
	p := pickBest(used, fresh, a)
	*e = pickCache{c: p, lo: p.cost, state: cachePick}
	fallback := !(p.cost <= a)
	if fallback {
		// Nothing affordable: p is the cheapest fallback, and stands
		// until the first candidate turns affordable.
		e.lo, e.hi, e.capped = math.Inf(-1), p.cost, true
	}
	for _, part := range [2][]candidate{used, fresh} {
		for i := range part {
			c := &part[i]
			switch {
			case fallback:
				if math.IsNaN(c.eft) || math.IsNaN(c.cost) {
					e.state = cacheEmpty
					return
				}
			case c.eft > p.eft:
			case math.IsNaN(c.eft) || math.IsNaN(c.cost):
				e.state = cacheEmpty
				return
			case c.eft < p.eft && (!e.capped || c.cost < e.hi):
				e.hi, e.capped = c.cost, true
			}
		}
	}
}

// unmovedBy reports whether refresh leaves the cache as it is for any
// candidate on VM vm that finishes after eft, with no NaN metric: it
// is empty, or a feasible pick or a cacheBound on another VM that
// finishes by eft. A fallback compares costs, so it is never skipped.
func (e *pickCache) unmovedBy(vm int, eft float64) bool {
	return e.state == cacheEmpty || e.c.vm != vm && !math.IsInf(e.lo, -1) && eft > e.c.eft
}

// refresh folds the booked VM's new candidate c into the cache. c is a
// used VM's, so on an exact tie with a candidate of a later VM it comes
// first, as in pickBest.
//
//   - A feasible pick whose VM was booked becomes a cacheBound.
//     Otherwise a c that beats the pick lowers hi to its cost.
//   - A fallback passes to c when cheaper ranks c first. When c
//     replaces the fallback on its own VM and ranks behind it, another
//     candidate may be the cheapest now: the cache is emptied.
//   - A cacheBound lowers its bound to c's EFT, and lo follows the cost
//     on its VM.
func (e *pickCache) refresh(c candidate) {
	switch {
	case e.state == cacheEmpty:
	case math.IsNaN(c.eft), math.IsNaN(c.cost):
		e.state = cacheEmpty
	case e.state == cacheBound:
		e.c.eft = min(e.c.eft, c.eft)
		if c.vm == e.c.vm {
			e.lo = c.cost
		}
	case math.IsInf(e.lo, -1):
		switch {
		case c.vm == e.c.vm && cheaper(&e.c, &c):
			e.state = cacheEmpty
		case c.vm == e.c.vm, cheaper(&c, &e.c), !cheaper(&e.c, &c) && c.vm < e.c.vm:
			e.c, e.hi = c, c.cost
		}
	case c.vm == e.c.vm:
		e.state, e.lo = cacheBound, c.cost
		e.c.eft = min(e.c.eft, c.eft)
	case e.capped && c.cost >= e.hi:
	case less(c, e.c) || !less(e.c, c) && c.vm < e.c.vm:
		e.hi, e.capped = c.cost, true
	}
}

func errNoReadyTask(name string, done, total int) error {
	return fmt.Errorf("sched: no ready task in %q after %d/%d assignments", name, done, total)
}

// initSpent returns the initialization cost of the VMs actually
// provisioned, used to tighten the planner's cost estimate (the
// reserve booked n setups; fewer are typically used).
func initSpent(s *plan.Schedule, p *platform.Platform) float64 {
	total := 0.0
	for _, cat := range s.VMCats {
		total += p.Categories[cat].InitCost
	}
	return total
}
