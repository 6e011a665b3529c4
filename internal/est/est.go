package est

import (
	"fmt"
	"math"
	"sync"

	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/wf"
)

// ErrContention marks platforms the analytic estimator cannot model:
// a finite DCBandwidth makes flow completion times depend on the set
// of concurrently active flows, which moment propagation over a fixed
// precedence structure cannot represent. Use Monte Carlo there.
var ErrContention = fmt.Errorf("est: analytic estimator requires unbounded datacenter bandwidth (Platform.DCBandwidth == 0); use estimator=mc")

// ErrMarket marks multi-provider market platforms (internal/market):
// per-provider bandwidth and latency, transfer surcharges and spot
// revocations make completion times and invoices depend on stochastic
// preemption events that moment propagation does not model. Use Monte
// Carlo there.
var ErrMarket = fmt.Errorf("est: analytic estimator does not support market platforms (providers, transfer matrices, spot categories); use estimator=mc")

// Supports is the estimator's domain of validity over platforms — the
// one place the rule is written: ErrContention for fluid bandwidth
// sharing, ErrMarket for market platforms, nil otherwise. Compute asks
// it, and so does every entry point that accepts estimator=analytic
// (through exp.CheckEstimator, which adds the fault-injection clause),
// so an unsupported request is refused up front instead of mid-sweep.
func Supports(p *platform.Platform) error {
	switch {
	case p.DCBandwidth > 0:
		return ErrContention
	case p.MarketDistinct():
		return ErrMarket
	}
	return nil
}

// Estimate is the analytic distribution estimate for one schedule.
type Estimate struct {
	// Makespan approximates the distribution of Result.Makespan
	// (last event minus first booking).
	Makespan Gauss
	// Cost approximates Result.TotalCost (VM costs plus datacenter
	// cost), with per-VM spans billed per the platform's quantum.
	Cost Gauss
	// MakespanSkew and CostSkew are the standardized third moments
	// implied by the truncated task-duration distributions (left
	// truncation skews every duration right). The quantile and tail
	// methods fold them in via a one-term Cornish–Fisher/Edgeworth
	// correction; a plain Gaussian read of Makespan/Cost is accurate
	// for means and variances but understates upper quantiles as σ/w̄
	// approaches 1.
	MakespanSkew float64
	CostSkew     float64
	// VMCosts holds the per-VM cost distributions, in VM index order,
	// skipping VMs with no task (never booked, never billed).
	VMCosts []Gauss
	// DCCost approximates the datacenter cost: fixed external-transfer
	// charges plus the per-second charge over the execution span.
	DCCost Gauss
}

// MakespanQuantile returns the p-quantile of the makespan estimate,
// skew-corrected (Cornish–Fisher).
func (e *Estimate) MakespanQuantile(p float64) float64 {
	return skewQuantile(e.Makespan, e.MakespanSkew, p)
}

// CostQuantile returns the p-quantile of the total-cost estimate,
// skew-corrected (Cornish–Fisher).
func (e *Estimate) CostQuantile(p float64) float64 { return skewQuantile(e.Cost, e.CostSkew, p) }

// OverrunProb returns P(total cost > budget), skew-corrected
// (one-term Edgeworth tail).
func (e *Estimate) OverrunProb(budget float64) float64 { return skewTail(e.Cost, e.CostSkew, budget) }

// Basis sizing. Up to exactTrackLimit tasks every task's duration
// noise is its own tracked dimension, and the join correlations are
// exact (this regime covers the validation grid, so the accuracy
// acceptance tests measure the exact math). Larger workflows switch to
// a deterministic count sketch: each task hashes to one of sketchDims
// signed buckets, inner products of sketched sensitivity vectors are
// unbiased estimates of the exact covariances (error ~√(2/sketchDims)
// relative per join), and the propagation cost per join drops from
// O(tasks) to O(sketchDims) — the difference between an estimate that
// undercuts a single Monte Carlo replication and one that costs
// dozens. Variance totals stay exact in either regime; only
// cross-timestamp correlation is approximated by the sketch.
const (
	exactTrackLimit = 128
	sketchDims      = 24
)

// arena holds every per-call array Compute needs, recycled through a
// sync.Pool so the sweep hot path allocates nothing after warm-up.
// Reuse discipline: every slot is written before it is read on each
// call (joins and copies assign all components; the setup loops assign
// every per-task entry on both branches), except the few flag arrays
// Compute clears explicitly at the top.
type arena struct {
	n, nVMs, m int

	slab []float64 // backing store for every vec's components

	pos       []int // position of each task in its VM's order
	stageSize []float64
	maxUpload []float64
	indeg     []int
	durMean   []float64
	durSigma  []float64
	gammaT    []float64
	crossCnt  []int32
	fill      []int32
	csrTo     []wf.TaskID
	csrShift  []float64
	endNeeded []bool
	gammaB    []float64 // sketch-regime per-bucket skewness

	finish   []vec // F_t
	ready    []vec // latest cross-VM input arrival at the DC
	book     []vec // booking time of each VM
	vmEnd    []vec // H_end,v: last local event
	hasReady []bool
	booked   []bool // VM has a head task (non-empty)
	endSet   []bool
	queue    []wf.TaskID

	zeroVec, firstBook, lastEvent, makespanVec, totalVec, span vec
}

var arenaPool sync.Pool

func newArena(n, nVMs, m, maxEdges int) *arena {
	a := &arena{n: n, nVMs: nVMs, m: m}
	nVecs := 2*n + 2*nVMs + 6
	a.slab = make([]float64, nVecs*m)
	comps := a.slab
	next := func() vec {
		v := vec{comp: comps[:m:m]}
		comps = comps[m:]
		return v
	}
	a.finish = make([]vec, n)
	a.ready = make([]vec, n)
	for t := range a.finish {
		a.finish[t] = next()
		a.ready[t] = next()
	}
	a.book = make([]vec, nVMs)
	a.vmEnd = make([]vec, nVMs)
	for v := range a.book {
		a.book[v] = next()
		a.vmEnd[v] = next()
	}
	a.zeroVec = next() // stays the point mass at 0: only ever read
	a.firstBook = next()
	a.lastEvent = next()
	a.makespanVec = next()
	a.totalVec = next()
	a.span = next()

	a.pos = make([]int, n)
	a.stageSize = make([]float64, n)
	a.maxUpload = make([]float64, n)
	a.indeg = make([]int, n)
	a.durMean = make([]float64, n)
	a.durSigma = make([]float64, n)
	a.gammaT = make([]float64, n)
	a.crossCnt = make([]int32, n+1)
	a.fill = make([]int32, n)
	a.csrTo = make([]wf.TaskID, maxEdges)
	a.csrShift = make([]float64, maxEdges)
	a.endNeeded = make([]bool, n)
	a.gammaB = make([]float64, m)
	a.hasReady = make([]bool, n)
	a.booked = make([]bool, nVMs)
	a.endSet = make([]bool, nVMs)
	a.queue = make([]wf.TaskID, 0, n)
	return a
}

// Compute propagates truncated-Gaussian task-duration moments through
// the schedule and returns the makespan/cost estimate. It validates
// platform and schedule the same way the simulator does, mirrors the
// engine's timing rules (VM booked when the head task's cross-VM
// inputs reach the datacenter, boot delay, serialized staging before
// compute, asynchronous uploads extending VM life), and refuses the
// platforms Supports does.
func Compute(w *wf.Workflow, p *platform.Platform, s *plan.Schedule) (*Estimate, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := s.Validate(w, p.NumCategories()); err != nil {
		return nil, err
	}
	if err := Supports(p); err != nil {
		return nil, err
	}
	tablesOnce.Do(buildTables)

	n := w.NumTasks()
	nVMs := s.NumVMs()
	m := n
	exact := true
	if n > exactTrackLimit {
		m = sketchDims
		exact = false
		// Fully deterministic workflows need no correlation basis at
		// all: every join short-circuits on means, and the propagation
		// collapses to an exact scalar longest-path computation.
		anyStoch := false
		for _, task := range w.TasksView() {
			if task.Weight.Sigma != 0 {
				anyStoch = true
				break
			}
		}
		if !anyStoch {
			m = 0
		}
	}
	// Soft-domination threshold for the joins: enabled only in the
	// sketch regime (see softJoinCut).
	soft := float64(joinCut)
	if !exact {
		soft = softJoinCut
	}
	edges := w.EdgesView()
	tasks := w.TasksView()
	invBW := 1.0 / p.Bandwidth
	a, _ := arenaPool.Get().(*arena)
	if a == nil || a.n != n || a.nVMs != nVMs || a.m != m || cap(a.csrTo) < len(edges) {
		a = newArena(n, nVMs, m, len(edges))
	}
	defer arenaPool.Put(a)

	// Per-task static structure, mirroring sim.engineStatic: staged
	// bytes (external input plus cross-VM input edges), the largest
	// upload each task issues (cross-VM output edges and the external
	// output all start at finish time, so only the largest extends the
	// VM's life), and the dependency counts of the combined
	// precedence-plus-chain graph that fixes the propagation order.
	// One flat edge walk replaces per-task Pred/Succ calls (those
	// allocate a fresh slice per call, which alone used to dominate
	// the allocation profile of a Compute).
	pos := a.pos
	for _, order := range s.Order {
		for i, t := range order {
			pos[t] = i
		}
	}
	stageSize, maxUpload, indeg := a.stageSize, a.maxUpload, a.indeg
	durMean, durSigma, gammaT := a.durMean, a.durSigma, a.gammaT
	sumS3, sumS3G := 0.0, 0.0 // third-cumulant mass, for the sketch γ̄
	// The paper's workflows share one σ/w̄ ratio across all tasks, so
	// memoizing the last truncation lookup turns the per-task moment
	// table reads into a single lookup per Compute.
	lastR := math.NaN()
	var lastFM, lastFSD, lastSkew float64
	for t := 0; t < n; t++ {
		task := &tasks[t]
		stageSize[t] = task.ExternalIn
		maxUpload[t] = task.ExternalOut
		if pos[t] > 0 {
			indeg[t] = 1 // chain edge from the previous task on the VM
		} else {
			indeg[t] = 0
		}
		speed := p.Categories[s.VMCats[s.TaskVM[t]]].Speed
		if task.Weight.Sigma == 0 {
			durMean[t] = task.Weight.Mean / speed
			durSigma[t] = 0
			gammaT[t] = 0
			continue
		}
		if r := task.Weight.Sigma / task.Weight.Mean; r != lastR {
			fm, fv, skew := truncFactors(r)
			lastR, lastFM, lastFSD, lastSkew = r, fm, math.Sqrt(fv), skew
		}
		fm, skew := lastFM, lastSkew
		durMean[t] = task.Weight.Mean * fm / speed
		sig := task.Weight.Mean * lastFSD / speed
		durSigma[t] = sig
		// Skewness is scale-invariant, so dividing by the speed keeps it.
		gammaT[t] = skew
		s3 := sig * sig * sig
		sumS3 += s3
		sumS3G += s3 * skew
	}
	// Cross-VM successor lists in CSR form with precomputed transfer
	// delays, plus the cross-input contributions to staging and
	// in-degree.
	crossCnt := a.crossCnt
	for i := range crossCnt {
		crossCnt[i] = 0
	}
	for _, e := range edges {
		if s.TaskVM[e.From] != s.TaskVM[e.To] {
			crossCnt[e.From+1]++
			stageSize[e.To] += e.Size
			indeg[e.To]++
			if e.Size > maxUpload[e.From] {
				maxUpload[e.From] = e.Size
			}
		}
	}
	for t := 0; t < n; t++ {
		crossCnt[t+1] += crossCnt[t]
	}
	csrTo, csrShift := a.csrTo, a.csrShift
	fill := a.fill
	copy(fill, crossCnt[:n])
	for _, e := range edges {
		if s.TaskVM[e.From] != s.TaskVM[e.To] {
			k := fill[e.From]
			fill[e.From]++
			csrTo[k] = e.To
			csrShift[k] = e.Size * invBW
		}
	}
	// endNeeded marks the tasks that can determine their VM's last
	// event. Finish times along a serial chain are ordered (task j
	// cannot finish before task i < j), so a task whose largest upload
	// is not larger than every later task's largest upload is dominated
	// realization for realization — only the strictly-decreasing upload
	// suffix of each chain feeds the VM-end max. This is exact, and it
	// removes most of the per-task join work (uploads are homogeneous
	// in practice, so typically only the chain's last task survives).
	endNeeded := a.endNeeded
	if exact {
		// In the exact regime keep every task in the VM-end max: the
		// Clark joins against already-dominated chain predecessors add
		// a small upward mean bias that empirically offsets Clark's
		// undershoot on right-skewed maxima, and the validated 2% grid
		// was calibrated with them in. The sketch regime drops them
		// for speed (and is validated separately, spot-checked at
		// n = 300).
		for t := range endNeeded {
			endNeeded[t] = true
		}
	} else {
		for _, order := range s.Order {
			best := -1.0
			for i := len(order) - 1; i >= 0; i-- {
				t := order[i]
				if maxUpload[t] > best {
					endNeeded[t] = true
					best = maxUpload[t]
				} else {
					endNeeded[t] = false
				}
			}
		}
	}
	// The correlation basis: per-task dimensions when exact, a signed
	// count-sketch column per task otherwise. γ per dimension drives
	// the Edgeworth corrections; a sketch bucket mixes several tasks,
	// whose third cumulants blend into the variance-weighted mean skew
	// (exact when all tasks share one σ/w̄ ratio, the paper's setup).
	gammaB := gammaT
	if !exact {
		gammaB = a.gammaB
		gBar := 0.0
		if sumS3 > 0 {
			gBar = sumS3G / sumS3
		}
		for b := range gammaB {
			gammaB[b] = gBar
		}
	}

	finish, ready, book, vmEnd := a.finish, a.ready, a.book, a.vmEnd
	hasReady, booked, endSet := a.hasReady, a.booked, a.endSet
	for t := range hasReady {
		hasReady[t] = false
	}
	for v := range booked {
		booked[v] = false
		endSet[v] = false
	}

	// Kahn propagation over the combined graph: a task becomes ready
	// when every cross-VM input's producer has finished and its chain
	// predecessor (if any) has finished. Same-VM data edges impose
	// nothing beyond the chain: the data never leaves the VM, and
	// Schedule.Validate guarantees the chain respects them.
	queue := a.queue[:0]
	for t := 0; t < n; t++ {
		if indeg[t] == 0 {
			queue = append(queue, wf.TaskID(t))
		}
	}
	processed := 0
	stochSeen := 0 // stochastic tasks processed, drives the sketch round-robin
	for qi := 0; qi < len(queue); qi++ {
		t := queue[qi]
		processed++
		v := s.TaskVM[t]

		// Build F_t in place: stage start, then staging transfer, then
		// the task's own duration.
		f := &finish[t]
		if pos[t] == 0 {
			// Booking rule: the VM is booked the instant the head
			// task's inputs are all at the datacenter, then boots.
			if hasReady[t] {
				book[v].copyFrom(&ready[t], 0)
			} else {
				book[v].zero()
			}
			booked[v] = true
			f.copyFrom(&book[v], p.BootTime)
		} else if hasReady[t] {
			prev := s.Order[v][pos[t]-1]
			joinInto(f, &finish[prev], &ready[t], 0, 0, gammaB, soft, false)
		} else {
			prev := s.Order[v][pos[t]-1]
			if exact {
				// Join with the zero arrival even though the chain
				// predecessor dominates almost surely: like the extra
				// VM-end joins above, the slight Clark inflation is
				// part of the calibration the 2% grid validates.
				joinInto(f, &finish[prev], &a.zeroVec, 0, 0, gammaB, soft, false)
			} else {
				// No cross-VM inputs: the chain predecessor's finish
				// alone gates the start (max with the zero arrival is
				// exact — every finish time is non-negative).
				f.copyFrom(&finish[prev], 0)
			}
		}
		f.mean += stageSize[t]*invBW + durMean[t]
		if sig := durSigma[t]; sig > 0 {
			if exact {
				f.inject(int(t), sig)
			} else {
				// Sketch column: round-robin bucket in propagation
				// order — topologically adjacent tasks (the ones whose
				// finish times actually meet in joins) land in
				// distinct buckets, so collisions only pair tasks at
				// least sketchDims apart in the schedule, where one
				// side's weight in any later join is usually
				// negligible. A deterministic per-task hash sign keeps
				// the collision cross-terms zero-mean. Both are
				// deterministic in (workflow, schedule), so repeated
				// estimates are byte-identical.
				delta := sig
				if splitmix64(uint64(t))&(1<<63) != 0 {
					delta = -sig
				}
				f.inject(stochSeen%m, delta)
				stochSeen++
			}
		}

		// The VM stays alive until its last compute or upload ends.
		if endNeeded[t] {
			up := maxUpload[t] * invBW
			if endSet[v] {
				joinInto(&vmEnd[v], &vmEnd[v], f, 0, up, gammaB, soft, false)
			} else {
				vmEnd[v].copyFrom(f, up)
				endSet[v] = true
			}
		}

		// Release successors: cross-VM consumers see the upload arrive
		// size/bandwidth after the finish; the chain successor only
		// needs the finish itself.
		for k := crossCnt[t]; k < crossCnt[t+1]; k++ {
			d := csrTo[k]
			if hasReady[d] {
				joinInto(&ready[d], &ready[d], f, 0, csrShift[k], gammaB, soft, false)
			} else {
				ready[d].copyFrom(f, csrShift[k])
				hasReady[d] = true
			}
			indeg[d]--
			if indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
		if pos[t]+1 < len(s.Order[v]) {
			nxt := s.Order[v][pos[t]+1]
			indeg[nxt]--
			if indeg[nxt] == 0 {
				queue = append(queue, nxt)
			}
		}
	}
	a.queue = queue[:0]
	if processed < n {
		// A cross-VM cycle through chain edges: the simulator would
		// deadlock on this schedule, so refuse it the same way.
		return nil, fmt.Errorf("est: deadlock with %d/%d tasks reachable; schedule has a cross-VM ordering cycle", processed, n)
	}

	// Aggregate: first booking (Clark min), last event (Clark max).
	firstBook, lastEvent := &a.firstBook, &a.lastEvent
	haveBook, haveEnd := false, false
	endSeed := -1
	if !exact {
		// Seed the last-event max with the largest-mean VM end, so the
		// cascade's running max dominates most other operands outright
		// and the joins hit the soft/hard shortcuts instead of blending.
		// Sketch regime only: join order perturbs Clark's result
		// slightly, and the exact-regime grid was validated in VM order.
		for v := 0; v < nVMs; v++ {
			if booked[v] && (endSeed < 0 || vmEnd[v].mean > vmEnd[endSeed].mean) {
				endSeed = v
			}
		}
		if endSeed >= 0 {
			lastEvent.copyFrom(&vmEnd[endSeed], 0)
			haveEnd = true
		}
	}
	if !exact {
		// Booking times are non-negative almost surely, so one VM
		// booked at the deterministic zero pins the minimum exactly —
		// Clark's min against it could only smear (and slightly
		// undershoot) the point mass. Head tasks without cross-VM
		// inputs book at zero, so this skips the whole min cascade on
		// typical schedules. Sketch regime only: the exact-regime
		// validation grid was calibrated with the cascade in.
		for v := 0; v < nVMs; v++ {
			if booked[v] && book[v].mean == 0 && book[v].sd == 0 {
				firstBook.zero()
				haveBook = true
				break
			}
		}
	}
	for v := 0; v < nVMs; v++ {
		if !booked[v] {
			continue // empty VM: never booked, never billed
		}
		if !haveBook {
			firstBook.copyFrom(&book[v], 0)
			haveBook = true
		} else if exact || firstBook.mean != 0 || firstBook.sd != 0 {
			joinInto(firstBook, firstBook, &book[v], 0, 0, gammaB, soft, true)
		}
		if !haveEnd {
			lastEvent.copyFrom(&vmEnd[v], 0)
			haveEnd = true
		} else if v != endSeed {
			joinInto(lastEvent, lastEvent, &vmEnd[v], 0, 0, gammaB, soft, false)
		}
	}

	// Makespan = lastEvent − firstBook, with the correlation carried by
	// the shared components (firstBook is usually deterministic zero).
	makespanVec := &a.makespanVec
	subInto(makespanVec, lastEvent, firstBook)
	if makespanVec.mean < 0 {
		makespanVec.mean = 0
	}
	makespan := makespanVec.gauss()

	estimate := &Estimate{
		Makespan:     makespan,
		MakespanSkew: vecSkew(makespanVec, gammaB, makespan.Var),
		VMCosts:      make([]Gauss, 0, nVMs),
	}
	// Total cost in canonical form: per-VM billed spans enter linearly
	// under continuous billing, so correlations between VMs (shared
	// upstream uncertainty) carry into the total's variance. A billing
	// quantum makes the per-VM cost a nonlinear (ceil) function of its
	// span; its mean and variance follow from the span's Gaussian
	// marginal, and quantized VM costs are summed as independent.
	totalVec := &a.totalVec
	totalVec.zero()
	quantized := Gauss{}
	span := &a.span
	for v := 0; v < nVMs; v++ {
		if !booked[v] {
			continue
		}
		// Billed span: end of boot to last event on the VM, correlation
		// with the booking time accounted through shared components.
		subInto(span, &vmEnd[v], &book[v])
		span.mean -= p.BootTime
		if span.mean < 0 {
			span.mean = 0
		}
		cat := p.Categories[s.VMCats[v]]
		if p.BillingQuantum > 0 {
			cost := quantizedCost(p, s.VMCats[v], span.gauss())
			estimate.VMCosts = append(estimate.VMCosts, cost)
			quantized = quantized.Plus(cost)
			continue
		}
		estimate.VMCosts = append(estimate.VMCosts, Gauss{
			Mean: span.mean*cat.CostPerSec + cat.InitCost,
			Var:  span.variance() * cat.CostPerSec * cat.CostPerSec,
		})
		totalVec.mean += span.mean*cat.CostPerSec + cat.InitCost
		totalVec.extra += span.extra * cat.CostPerSec * cat.CostPerSec
		for i, c := range span.comp {
			totalVec.comp[i] += c * cat.CostPerSec
		}
	}
	fixed := (w.ExternalInSize() + w.ExternalOutSize()) * p.TransferCostPerByte
	estimate.DCCost = makespan.Scale(p.DCCostPerSec).Add(fixed)
	// The DC span charge is the makespan scaled; fold it into the
	// canonical total so its correlation with the VM spans is kept.
	totalVec.mean += makespanVec.mean*p.DCCostPerSec + fixed
	totalVec.extra += makespanVec.extra * p.DCCostPerSec * p.DCCostPerSec
	sq := 0.0
	for i, c := range makespanVec.comp {
		c = totalVec.comp[i] + c*p.DCCostPerSec
		totalVec.comp[i] = c
		sq += c * c
	}
	totalVec.sq = sq
	estimate.Cost = totalVec.gauss().Plus(quantized)
	// The quantized VM costs contribute variance but no tracked third
	// moment, which correctly dilutes the skew of the total.
	estimate.CostSkew = vecSkew(totalVec, gammaB, estimate.Cost.Var)
	return estimate, nil
}

// quantizedCost returns the cost distribution of one VM of category k
// with the given billed-span marginal, per Equation (1) under a
// billing quantum: units = max(1, ceil(span/q)), whose first two
// moments follow from the Gaussian tail:
// E[units] = 1 + Σ_{j≥1} P(span > jq) and
// E[units²] = 1 + Σ_{j≥1} (2j+1)·P(span > jq).
func quantizedCost(p *platform.Platform, k int, span Gauss) Gauss {
	c := p.Categories[k]
	q := p.BillingQuantum
	maxJ := int(math.Ceil((span.Mean + 8*span.Sigma()) / q))
	eu, eu2 := 1.0, 1.0
	for j := 1; j <= maxJ; j++ {
		tail := span.Tail(float64(j) * q)
		eu += tail
		eu2 += float64(2*j+1) * tail
	}
	v := eu2 - eu*eu
	if v < 0 {
		v = 0
	}
	unitCost := q * c.CostPerSec
	return Gauss{Mean: eu*unitCost + c.InitCost, Var: v * unitCost * unitCost}
}
