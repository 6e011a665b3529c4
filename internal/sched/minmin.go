package sched

import (
	"fmt"
	"math"

	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/wf"
)

// MinMin is the classical MIN-MIN list scheduler: among all ready
// tasks, repeatedly pick the (task, host) pair with the smallest
// earliest finish time. It is budget-blind — equivalently, MIN-MINBUDG
// with an infinite budget, which is exactly how the paper uses it as a
// baseline ("given an infinite initial budget, MIN-MIN ... give[s] the
// same schedule as MIN-MINBUDG", §V-B).
func MinMin(w *wf.Workflow, p *platform.Platform) (*plan.Schedule, error) {
	return minMinPlan(w, p, nil, Options{})
}

// MinMinBudg is Algorithm 3: MIN-MIN extended with the budget
// decomposition of Algorithm 1. Each task's candidate hosts are
// filtered by its allowance B_T + pot before the min-min selection.
func MinMinBudg(w *wf.Workflow, p *platform.Platform, budget float64) (*plan.Schedule, error) {
	return MinMinBudgOpt(w, p, budget, Options{})
}

// minMinPlan is the shared MIN-MIN loop. A nil info plans budget-blind
// (infinite allowance).
//
// A naive implementation re-evaluates every (ready task, host) pair
// each round: O(n² · p · deg). This one exploits the structure of
// eval(): a cached candidate for (t, v) only changes when VM v's
// availability changes, and each round changes exactly one VM (the one
// just assigned to, possibly freshly provisioned), while fresh-VM
// candidates never change once a task is ready. On top of the columns
// it caches each ready task's pick, with the invariant that a valid
// pickCache holds pickBest's answer on the task's column for every
// allowance inside its interval. A round re-scans a column only when
// the pick sat on the booked VM, when the booked VM's refreshed
// candidate may displace it, or when the task's allowance B_T + pot
// left the interval. A round therefore costs O(ready · deg) to refresh
// one VM's column, O(ready) to compare picks, and O(p) per re-scan.
// On the paper's families at n = 1000 (seed 1), 0.3–8 % of MIN-MIN's
// picks re-scan, 0.3–19 % of MIN-MINBUDG's at the medium budget, and
// 39–67 % at the low one: there nothing is affordable, and the booked
// VM's refreshed candidate is often the new cheapest fallback.
// TestMinMinFastMatchesReference* pins the plans against the naive
// loop and TestPickCacheMatchesPickBest the cache against pickBest.
func minMinPlan(w *wf.Workflow, p *platform.Platform, info *BudgetInfo, opt Options) (*plan.Schedule, error) {
	ctx, err := newContextOpt(w, p, opt)
	if err != nil {
		return nil, err
	}
	st := newState(ctx, false)
	n := w.NumTasks()
	numCats := p.NumCategories()

	// Ready-set maintenance via remaining-predecessor counters.
	remaining := make([]int, n)
	ready := make([]bool, n)
	// The ready tasks' candidate columns live in one matrix, a row per
	// column and stride candidates per row, each dimension grown by
	// doubling. A row holds one fresh VM per category, which never
	// changes once its task is ready, then one candidate per used VM,
	// ascending; pickBest and pickCache read the used part first,
	// bestHost's enumeration order. An assigned task's row is recycled
	// for the next task that becomes ready, so the columns allocate per
	// plan, neither per task nor per VM.
	var matrix []candidate
	stride := 2 * numCats
	row := make([]int, n)
	var free []int
	column := func(t wf.TaskID) []candidate {
		at := row[t] * stride
		return matrix[at : at+numCats+len(st.vms)]
	}
	picks := make([]pickCache, n)
	buildCands := func(t wf.TaskID) {
		if k := len(free); k > 0 {
			row[t], free = free[k-1], free[:k-1]
		} else {
			row[t] = len(matrix) / stride
			matrix = append(matrix, make([]candidate, stride)...)
		}
		col := column(t)
		for k := range col[:numCats] {
			col[k] = st.eval(t, -1, k)
		}
		for i, vm := range st.vms {
			col[numCats+i] = st.eval(t, i, vm.cat)
		}
		picks[t] = pickCache{}
	}
	for t := 0; t < n; t++ {
		remaining[t] = w.NumPred(wf.TaskID(t))
		ready[t] = remaining[t] == 0
		if ready[t] {
			buildCands(wf.TaskID(t))
		}
	}

	account := optPot{disabled: opt.DisablePot}
	listT := make([]wf.TaskID, 0, n)
	totalCost := 0.0
	for len(listT) < n {
		if err := opt.stopErr(); err != nil {
			return nil, err
		}
		bestTask := wf.TaskID(-1)
		var bestCand candidate
		var bestAllowance float64
		for t := 0; t < n; t++ {
			if !ready[t] {
				continue
			}
			allowance := infinite
			if info != nil {
				allowance = account.allowance(info.Shares[t])
			}
			e := &picks[t]
			if !e.holds(allowance) {
				col := column(wf.TaskID(t))
				e.repick(col[numCats:], col[:numCats], allowance)
			}
			c := e.c
			if bestTask < 0 || less(c, bestCand) {
				bestTask, bestCand, bestAllowance = wf.TaskID(t), c, allowance
			}
		}
		if bestTask < 0 {
			// Cannot happen on a validated DAG; defensive.
			return nil, errNoReadyTask(w.Name, len(listT), n)
		}
		if opt.span != nil {
			// The winning task's cached candidate column is exactly what
			// the min-min selection saw this round.
			col := column(bestTask)
			traceCandidates(opt.span, col[numCats:], bestTask, bestAllowance)
			traceCandidates(opt.span, col[:numCats], bestTask, bestAllowance)
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
		ready[bestTask] = false
		free = append(free, row[bestTask])
		listT = append(listT, bestTask)
		if numCats+len(st.vms) > stride {
			// A fresh VM outgrew the rows: double their stride.
			wider := make([]candidate, len(matrix)*2)
			for at := 0; at < len(matrix); at += stride {
				copy(wider[2*at:], matrix[at:at+stride])
			}
			matrix, stride = wider, 2*stride
		}
		// Refresh the column of the VM that changed, for tasks that
		// were already ready (newly ready ones get a fresh list below,
		// built against the post-assignment state), and fold the new
		// candidate into each cached pick.
		for t := 0; t < n; t++ {
			if !ready[t] {
				continue
			}
			c := st.eval(wf.TaskID(t), vmIdx, st.vms[vmIdx].cat)
			column(wf.TaskID(t))[numCats+vmIdx] = c
			picks[t].refresh(c)
		}
		for _, e := range ctx.succ[bestTask] {
			remaining[e.To]--
			if remaining[e.To] == 0 {
				ready[e.To] = true
				buildCands(e.To)
			}
		}
	}
	out := st.extract(listT)
	out.EstCost = totalCost + initSpent(out, p)
	if info != nil {
		out.EstCost += info.DCReserve
	}
	return out, nil
}

// pickCache is one ready task's pickBest result on its cached column,
// kept across rounds with the allowances for which pickBest on the
// unchanged column still returns it: lo ≤ a, and a < hi when capped.
//
//   - Feasible pick: lo is its cost. hi is the lowest cost among the
//     candidates that would beat it, all of them too expensive (capped
//     is false when there are none).
//   - Fallback, nothing affordable: lo is −∞ and hi is the cheapest
//     cost, where the first candidate turns affordable.
//
// A keyed heap over the picks would not do for MIN-MINBUDG: the pot
// moves every allowance every round, so what has to be re-checked is
// whether an allowance left its interval. The zero value holds for no
// allowance, so a task that has just become ready is scanned.
type pickCache struct {
	c      candidate
	lo, hi float64
	capped bool
	valid  bool
}

// holds reports whether the cached pick is still pickBest's answer
// under allowance a. A NaN allowance fails both bounds.
func (e *pickCache) holds(a float64) bool {
	return e.valid && a >= e.lo && (!e.capped || a < e.hi)
}

// repick scans the column — its used part, then its fresh part — with
// pickBest and records the interval over which its answer stands. A
// feasible pick is beaten exactly by the candidates that finish
// earlier: on an EFT tie less prefers the cheaper, and every candidate
// that beats the pick was too expensive, so costs more. A NaN metric
// breaks the order the bounds rely on (a category priced at +Inf makes
// a zero-size edge's upload cost 0·∞), so a column holding one where
// it could matter is re-scanned every round, as the naive loop would.
func (e *pickCache) repick(used, fresh []candidate, a float64) {
	p := pickBest(used, fresh, a)
	*e = pickCache{c: p, lo: p.cost, valid: true}
	fallback := p.cost > a
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
				if math.IsNaN(c.eft) {
					e.valid = false
					return
				}
			case c.eft > p.eft:
			case math.IsNaN(c.eft) || math.IsNaN(c.cost):
				e.valid = false
				return
			case c.eft < p.eft && (!e.capped || c.cost < e.hi):
				e.hi, e.capped = c.cost, true
			}
		}
	}
}

// refresh folds the booked VM's new candidate c into the cached pick.
// The pick is dropped when it sat on that VM, or, for a fallback, when
// c is at least as cheap. Otherwise a c that beats the pick lowers hi
// to its cost: c is a used VM's, so it beats the pick under less, or on
// an exact tie from an earlier VM (pickBest keeps the first of equals).
func (e *pickCache) refresh(c candidate) {
	switch {
	case !e.valid:
	case c.vm == e.c.vm, math.IsNaN(c.eft), math.IsNaN(c.cost):
		e.valid = false
	case math.IsInf(e.lo, -1):
		// Fallback: a candidate at least as cheap may take over.
		e.valid = c.cost > e.c.cost
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
