package sched

import (
	"fmt"
	"math"
	"math/bits"

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
// candidate into every cache it can move, and re-scans a task only when
// neither pick holds — the booked VM's candidate may displace a pick,
// or the task's allowance B_T + pot left its interval — and the task
// could win the round. A task whose floor, or a bound its caches keep
// (pickCache.bound), already finishes after the round's best pick so
// far cannot win, so its re-scan waits; a pick whose VM was booked
// becomes such a bound rather than nothing.
//
// Most ready tasks cost a round one compare. Each keeps a key
// (readyRow), a lower bound on the EFT of every candidate it has under
// any allowance, and a task whose key exceeds the round's best so far
// cannot win, whatever its caches hold: it is skipped (skipped). The
// key holds because
//
//   - a task that becomes ready takes its floor, which bounds every
//     candidate;
//   - a re-scan sets it to the lowest EFT in the list state.hosts
//     returns, and that is the lowest over every host: the list holds
//     pickBest's answer, and for every candidate that finishes before
//     the answer one that finishes no later (hosts' contract), so no
//     host finishes before the list's lowest;
//   - between re-scans only the booked VM's candidate changes. A ready
//     task's inputs are fixed, so are its candidates on fresh VMs, and
//     a used VM's, max(readyAt, dcReady) + work (onVM), does not fall
//     as a booking raises readyAt. A freshly provisioned VM brings a new
//     candidate, which may finish earlier; the fold lowers the key to
//     its EFT. A fold is skipped only when no cache moves
//     (pickCache.unmovedBy), and then the candidate finishes after the
//     row's threshold, which readyRow.note keeps at or above the key,
//     or both caches are empty and the key is the floor.
//
// The key is on no pick, so the pot, which moves every allowance every
// round, leaves it standing. A NaN key or best fails the compare, and
// such a task runs the round as before. The rows are summarized per
// blockTasks task IDs (readyBlock), and a round passes over a block
// whose every row it would skip, folding nothing, with a few compares.
// The round still visits the ready tasks in ID order, so that the first
// of equal picks wins as in the naive loop. A heap over the keys would
// lose that order, and at the low budget, where picks fall back and the
// keys run far below them, it would pop nearly every task every round.
// There the rows and blocks are upkeep the key rarely repays.
//
// A re-scan reads the candidates the readiness index yields
// (state.hosts), laid out in one buffer reused for the whole plan:
// eval's predecessor pass runs once (state.prepare), a VM that runs a
// predecessor takes a full eval only when its EFT floor is not beaten
// by an affordable candidate already found, each category costs
// O(log p) to find the VMs ready by the task's data, and every VM the
// walk visits is placed in O(1) — in each category the last one ready
// by the data with its cost ties, and those ready later up to the first
// affordable one, all of them only when nothing is affordable. The
// booked VM's candidate is evaluated only for a task whose caches it
// can move, in O(deg). A round therefore costs O(n / blockTasks) block
// compares, O(1) per row of a block it visits, O(deg) per row whose
// caches the booked VM moves, plus the re-scans, and a plan holds
// O(n + p) memory. On the paper's families at n = 1000 (seed 1), the
// key skips 96–98 % of the task visits of MIN-MIN and of MIN-MINBUDG at
// the high budget, 93–98 % at the medium budget on CyberShake and
// Montage but 31 % on LIGO, and 7–13 % at the low budget, where nearly
// every pick falls back. A traced plan records the counts on its span
// (rescans, deferred, skipped, walked, the used-VM placements the
// re-scans evaluated, and predEdges, the predecessor edges their full
// evaluations read). TestMinMinFastMatchesReference* and
// FuzzMinMinMatchesReference pin the plans against the naive loop on
// plain eval, TestPlaceMatchesEval the O(1) placement against eval,
// TestPickCacheMatchesPickBest the cache against pickBest, and
// FuzzIndexedPickMatchesScan a re-scan from the index, and its lowest
// EFT, against one over every host.
func minMinPlan(w *wf.Workflow, p *platform.Platform, info *BudgetInfo, opt Options) (*plan.Schedule, error) {
	ctx, err := newContextOpt(w, p, opt)
	if err != nil {
		return nil, err
	}
	st := newState(ctx)
	n := w.NumTasks()

	// Ready-set maintenance via remaining-predecessor counters: a ready
	// task has a row, and its bit set in its block's mask. A task that
	// becomes ready records its floor, a lower bound on the EFT of every
	// candidate it has: no host starts it before its last predecessor
	// finishes (the data reaches the datacenter later, and a VM that ran
	// the predecessor is busy until then), nor computes it in less than
	// fast, its time on the fastest category.
	remaining := make([]int, n)
	blocks := make([]readyBlock, (n+blockTasks-1)/blockTasks)
	rows := make([]readyRow, n)
	picks := make([][2]pickCache, n)
	fastest := 0.0
	for _, c := range p.Categories {
		fastest = max(fastest, c.Speed)
	}
	setReady := func(t wf.TaskID) {
		last := 0.0
		for _, e := range ctx.pred[t] {
			last = max(last, st.finish[e.From])
		}
		r := &rows[t]
		r.fast = ctx.cons[t] / fastest
		r.floor = last + r.fast
		r.note(&picks[t], r.floor)
		blk := &blocks[t/blockTasks]
		if blk.mask == 0 {
			blk.rowSummary = noRows
		}
		blk.mask |= 1 << (t % blockTasks)
		blk.rowSummary = blk.with(r)
	}
	for t := 0; t < n; t++ {
		remaining[t] = w.NumPred(wf.TaskID(t))
		if remaining[t] == 0 {
			setReady(wf.TaskID(t))
		}
	}
	// repick re-scans t's candidates, laid out used VMs then fresh ones,
	// and returns the lowest EFT among them (pickCache.repick). It makes
	// t's fast NaN when one of t's inputs or terms is not finite, where a
	// candidate may have a NaN metric, so that every booked VM's
	// candidate is folded into the caches the re-scan fills; until a
	// task's first re-scan both are empty, and nothing is folded.
	repick := func(e *pickCache, t wf.TaskID, allowance float64) float64 {
		in, terms := st.prepare(t)
		x := in.missing + in.dcReady + in.srcCost
		for _, kt := range terms {
			x += kt.work + kt.chost + kt.out
		}
		rows[t].fast = ctx.cons[t]/fastest + (x - x)
		used, fresh := st.hosts(t, in, terms, allowance, -1)
		return e.repick(used, fresh, allowance)
	}

	account := optPot{disabled: opt.DisablePot}
	listT := make([]wf.TaskID, 0, n)
	totalCost := 0.0
	var traced []candidate
	rescans, deferred, skipped := 0, 0, 0
	// booked is the VM the last round assigned to, and bookedAt its new
	// readiness: each ready task folds its candidate there into its
	// caches before it competes (newly ready tasks, scanned against the
	// state after the assignment, hold none). The candidate finishes no
	// earlier than bookedAt plus the task's fast, and a row whose caches
	// no such candidate moves (readyRow.moved) folds nothing.
	booked, bookedAt := -1, 0.0
	for len(listT) < n {
		if err := opt.stopErr(); err != nil {
			return nil, err
		}
		bestTask := wf.TaskID(-1)
		bestCand := candidate{eft: infinite}
		var bestAllowance float64
		vm := int32(booked)
		for b := range blocks {
			blk := &blocks[b]
			if blk.mask == 0 || blk.key > bestCand.eft && (booked < 0 || bookedAt+blk.fast > blk.thr && blk.vms&vmBit(vm) == 0) {
				skipped += bits.OnesCount64(blk.mask)
				continue
			}
			base, sum := wf.TaskID(b*blockTasks), noRows
			for m := blk.mask; m != 0; m &= m - 1 {
				t := base + wf.TaskID(bits.TrailingZeros64(m))
				r := &rows[t]
				if booked >= 0 && r.moved(vm, bookedAt) {
					c := st.eval(t, booked, st.vms[booked].cat)
					picks[t][0].refresh(c)
					picks[t][1].refresh(c)
					r.note(&picks[t], min(r.key, c.eft))
				}
				// No candidate of a task whose key exceeds the round's
				// best finishes by it.
				if compete := !(r.key > bestCand.eft); !compete {
					skipped++
				} else {
					e, alt := &picks[t][0], &picks[t][1]
					allowance := infinite
					if info != nil {
						allowance = account.allowance(info.Shares[t])
					}
					switch {
					case e.holds(allowance):
					case alt.holds(allowance):
						*e, *alt = *alt, *e
					case bestTask >= 0 && max(r.floor, e.bound(allowance), alt.bound(allowance)) > bestCand.eft:
						// t cannot win this round: its re-scan waits for a
						// round where it can.
						deferred++
						compete = false
					default:
						if e.state == cachePick {
							*alt = *e
						}
						r.note(&picks[t], repick(e, t, allowance))
						rescans++
					}
					if compete && (bestTask < 0 || less(e.c, bestCand)) {
						bestTask, bestCand, bestAllowance = t, e.c, allowance
					}
				}
				sum = sum.with(r)
			}
			blk.rowSummary = sum
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
		blocks[bestTask/blockTasks].mask &^= 1 << (bestTask % blockTasks)
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
		opt.span.Set(obs.Int("rescans", rescans), obs.Int("deferred", deferred), obs.Int("skipped", skipped), obs.Int("walked", st.walked), obs.Int("predEdges", st.predEdges))
	}
	out := st.extract(listT)
	out.EstCost = totalCost + initSpent(out, p)
	if info != nil {
		out.EstCost += info.DCReserve
	}
	return out, nil
}

// readyRow is a ready task's row in minMinPlan: its key, its floor and
// fast, and what decides whether the booked VM's candidate can move its
// caches — their VMs (-2 for an empty cache, which none moves) and thr,
// the largest EFT among the non-empty ones, +Inf for a fallback, which
// any candidate may move, and −Inf when both are empty. A candidate on
// VM v that finishes after lb leaves both caches unmoved
// (pickCache.unmovedBy) exactly when v is neither VM and lb > thr.
type readyRow struct {
	key, floor, fast, thr float64
	vm                    [2]int32
}

// moved reports whether the candidate of the booked VM vm, ready at
// at, may move the row's caches (pickCache.unmovedBy): unless the VM is
// neither cache's and the candidate, which finishes no earlier than
// lb = at + fast, finishes after thr. A NaN lb moves them; an infinite
// one, from an overflow, leaves them as they are, as unmovedBy does.
func (r *readyRow) moved(vm int32, at float64) bool {
	lb := at + r.fast
	return !(lb > r.thr && r.vm[0] != vm && r.vm[1] != vm)
}

// blockTasks is how many consecutive task IDs a readyBlock covers.
const blockTasks = 16

// readyBlock is minMinPlan's summary of the rows of blockTasks
// consecutive task IDs: mask has bit j set when task j of the block is
// ready, and the rowSummary bounds its ready rows. A round passes over
// a block whose rows it would all skip: each finishes after the round's
// best, and the booked VM's candidate moves none of their caches. A
// round that visits a block summarizes it anew.
type readyBlock struct {
	mask uint64
	rowSummary
}

// rowSummary bounds a set of rows: key and fast are at most every
// row's, thr at least every row's, and vms has bit v mod 64 set for
// every VM v their caches hold. It has four words, so that a loop
// keeps it in registers.
type rowSummary struct {
	vms            uint64
	key, fast, thr float64
}

// noRows is the summary of no row.
var noRows = rowSummary{key: infinite, fast: infinite, thr: math.Inf(-1)}

// with is the summary of s's rows and r.
func (s rowSummary) with(r *readyRow) rowSummary {
	return rowSummary{
		vms: s.vms | vmBit(r.vm[0]) | vmBit(r.vm[1]),
		key: min(s.key, r.key), fast: min(s.fast, r.fast), thr: max(s.thr, r.thr),
	}
}

// vmBit is VM v's bit in readyBlock.vms, none for an empty cache (-2)
// or a fresh VM (-1).
func vmBit(v int32) uint64 {
	return 1 << (v & 63) &^ uint64(v>>31)
}

// note sets the row's key to key, and reads its other columns off
// the task's caches after they change. It keeps the key's invariant:
// the floor when both caches are empty, since no fold lowers the key
// then, and otherwise at most thr.
func (r *readyRow) note(picks *[2]pickCache, key float64) {
	vm, thr := [2]int32{-2, -2}, math.Inf(-1)
	for j := range picks {
		e := &picks[j]
		if e.state == cacheEmpty {
			continue
		}
		x := e.c.eft
		if math.IsInf(e.lo, -1) {
			x = infinite
		}
		vm[j], thr = int32(e.c.vm), max(thr, x)
	}
	if vm == [2]int32{-2, -2} {
		key = r.floor
	} else {
		key = min(key, thr)
	}
	r.key, r.thr, r.vm = key, thr, vm
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
// A key on the picks would not serve MIN-MINBUDG: the pot moves every
// allowance every round, so what a pick leaves to re-check is whether
// an allowance left its interval. minMinPlan's key is on the candidates
// instead (readyRow), which no allowance moves.
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
// round, as the naive loop would. repick returns the lowest EFT among
// the candidates, and NaN when it stops at a NaN metric: each NaN EFT
// stops it.
func (e *pickCache) repick(used, fresh []candidate, a float64) (low float64) {
	p := pickBest(used, fresh, a)
	*e = pickCache{c: p, lo: p.cost, state: cachePick}
	fallback := !(p.cost <= a)
	if fallback {
		// Nothing affordable: p is the cheapest fallback, and stands
		// until the first candidate turns affordable.
		e.lo, e.hi, e.capped = math.Inf(-1), p.cost, true
	}
	low = infinite
	for _, part := range [2][]candidate{used, fresh} {
		for i := range part {
			c := &part[i]
			if c.eft < low {
				low = c.eft
			}
			switch {
			case fallback:
				if math.IsNaN(c.eft) || math.IsNaN(c.cost) {
					e.state = cacheEmpty
					return math.NaN()
				}
			case c.eft > p.eft:
			case math.IsNaN(c.eft) || math.IsNaN(c.cost):
				e.state = cacheEmpty
				return math.NaN()
			case c.eft < p.eft && (!e.capped || c.cost < e.hi):
				e.hi, e.capped = c.cost, true
			}
		}
	}
	return low
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
