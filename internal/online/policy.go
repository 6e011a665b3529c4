package online

import (
	"fmt"
	"math"
	"slices"

	"budgetwf/internal/fault"
	"budgetwf/internal/obs"
	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/sim"
	"budgetwf/internal/wf"
)

// controller is the policy layer over one sim.Exec: it implements
// sim.Controller — the monitoring timeout and its migrations, and the
// fault injection with its recovery policies, both under the budget
// guard — and turns the engine's outcome into a Report.
type controller struct {
	*sim.Exec
	w       *wf.Workflow
	p       *platform.Platform
	weights []float64
	policy  Policy
	inj     *fault.Injection // nil: no fault injection
	span    *obs.Span        // nil: tracing disabled (Policy.Span)
	fastest int

	traces   []fault.VMTrace // per VM, when injecting
	migCount []int           // migrations per task
	attempts []int           // failure-recovery re-runs per task
	report   Report
}

func newController(w *wf.Workflow, p *platform.Platform, s *plan.Schedule, weights []float64, policy Policy) (*controller, error) {
	if p.DCBandwidth > 0 {
		return nil, fmt.Errorf("online: datacenter contention mode is not supported")
	}
	if len(weights) != w.NumTasks() {
		return nil, fmt.Errorf("online: %d weights for %d tasks", len(weights), w.NumTasks())
	}
	x, err := sim.NewExec(w, p, s, weights)
	if err != nil {
		return nil, err
	}
	n := w.NumTasks()
	counts := make([]int, 2*n)
	c := &controller{
		Exec: x, w: w, p: p, weights: weights, policy: policy, span: policy.Span,
		// Migrations and fastest-category recoveries are reliability
		// moves; they never target preemptible capacity. The sibling has
		// the same speed, so this is a no-op on spot-free platforms.
		fastest:  p.OnDemandSibling(p.Fastest()),
		migCount: counts[:n:n],
		attempts: counts[n:],
	}
	if policy.Faults != nil && policy.Faults.Model != nil {
		// Traces are consumed in provisioning order, so the i-th VM's fate
		// is a pure function of the fault seed and i.
		c.inj = policy.Faults
		for _, vm := range x.VMs {
			c.traces = append(c.traces, c.inj.Model.NewVM(vm.Cat))
		}
	}
	x.SetController(c)
	return c, nil
}

// newVM provisions a VM for a migration or a recovery.
func (c *controller) newVM(cat int, queue []wf.TaskID, notBefore float64) int {
	v := c.AddVM(cat, queue, notBefore)
	if c.inj != nil {
		c.traces = append(c.traces, c.inj.Model.NewVM(cat))
	}
	return v
}

// Reruns implements sim.Controller.
func (c *controller) Reruns() int {
	retries := 0
	if c.inj != nil {
		retries = c.inj.Recovery.Retries()
	}
	return (c.policy.maxMigrations() + 1) * (retries + 1)
}

// Booted implements sim.Controller: a boot the fault trace dooms goes
// through recovery; a good one arms the VM's crash, if it has one.
func (c *controller) Booted(v int) bool {
	if c.inj == nil {
		return true
	}
	if c.traces[v].BootFails() {
		c.bootFailure(v)
		return false
	}
	if ttc := c.traces[v].TimeToCrash(); !math.IsInf(ttc, 1) {
		c.ScheduleCrash(v, c.VMs[v].BootDone+ttc)
	}
	return true
}

// Computed implements sim.Controller.
func (c *controller) Computed(v int, t wf.TaskID) bool {
	if c.inj != nil && c.traces[v].TaskFails() {
		c.taskFailure(v, t)
		return false
	}
	return true
}

// Crash implements sim.Controller.
func (c *controller) Crash(v int) { c.handleCrash(v, c.Now()) }

// Timeout implements sim.Controller: the monitoring timeout of task t
// on VM v, if monitoring applies there.
func (c *controller) Timeout(v int, t wf.TaskID) (float64, bool) {
	if c.policy.TimeoutSigma <= 0 {
		return 0, false
	}
	cat := c.VMs[v].Cat
	if cat == c.fastest {
		return 0, false // nowhere faster to go
	}
	if c.migCount[t] >= c.policy.maxMigrations() {
		return 0, false
	}
	if c.Replica[t] >= 0 {
		return 0, false // a replica is already hedging this task
	}
	task := c.w.Task(t)
	quantile := task.Weight.Mean + c.policy.TimeoutSigma*task.Weight.Sigma
	timeout := quantile / c.p.Categories[cat].Speed
	if g := c.policy.GainFactor; g > 0 {
		// The gain rule: never interrupt before the task has consumed
		// at least γ× what a fastest-category restart would cost.
		inBytes := task.ExternalIn
		for _, ei := range c.In(t) {
			inBytes += c.Edges()[ei].Size
		}
		restart := c.p.CatBootTime(c.fastest) + inBytes/c.p.CatBandwidth(c.fastest) + quantile/c.p.Categories[c.fastest].Speed
		if floor := g * restart; floor > timeout {
			timeout = floor
		}
	}
	return timeout, true
}

// Interrupt implements sim.Controller: migrate the task to a fresh
// fastest-class VM, unless the budget guard vetoes it.
func (c *controller) Interrupt(v int, t wf.TaskID) bool {
	moved := []vmPlan{{cat: c.fastest, tasks: []wf.TaskID{t}}}
	if c.policy.Budget > 0 && c.projectedCost(moved, []wf.TaskID{t}) > c.policy.Budget {
		c.report.Vetoed++
		c.span.Event("migration-vetoed",
			obs.Int("task", int(t)), obs.Int("vm", v), obs.Float("at", c.Now()))
		return false
	}
	// Abandon the computation: the VM proceeds with its queue.
	wasted := c.Now() - c.VMs[v].ComputeStart
	c.Abandon(v)
	c.migCount[t]++
	nv := c.newVM(c.fastest, []wf.TaskID{t}, 0)
	c.Cur[t] = nv
	c.report.Migrations = append(c.report.Migrations, Migration{
		Task: t, FromVM: v, ToVM: nv, At: c.Now(), Wasted: wasted,
	})
	c.span.Event("migration",
		obs.Int("task", int(t)), obs.Int("fromVM", v), obs.Int("toVM", nv),
		obs.Float("at", c.Now()), obs.Float("wasted", wasted))
	c.AdvanceAll()
	return true
}

// vmPlan describes one prospective VM for the cost projection.
type vmPlan struct {
	cat   int
	tasks []wf.TaskID
}

// projectedCost estimates the final invoice if the planned VMs are
// booked now. The estimate is deliberately conservative: every
// already-booked VM is billed to at least the current instant plus the
// conservative cost of the work still queued on it (excluding the
// tasks being moved), the fixed external traffic is charged in full,
// and each planned VM pays its setup fee, staging, the conservative
// compute times and its output shipments.
func (c *controller) projectedCost(plans []vmPlan, exclude []wf.TaskID) float64 {
	now, edges := c.Now(), c.Edges()
	total := 0.0
	firstBook := math.Inf(1)
	for i := range c.VMs {
		vm := &c.VMs[i]
		if !vm.Booked {
			continue
		}
		if vm.BookTime < firstBook {
			firstBook = vm.BookTime
		}
		end := vm.End
		if !vm.Dead && end < now {
			end = now
		}
		total += c.Invoice(i, end)
		if vm.Dead {
			continue // no future work runs here
		}
		// Work still committed to this VM: queued unfinished tasks at
		// their conservative estimates, plus input staging.
		cat := c.p.Categories[vm.Cat]
		for qi := vm.Next; qi < len(vm.Queue); qi++ {
			u := vm.Queue[qi]
			if c.Done[u] || c.Failed[u] || c.Cur[u] != i || slices.Contains(exclude, u) {
				continue
			}
			task := c.w.Task(u)
			inBytes := task.ExternalIn
			for _, ei := range c.In(u) {
				if c.EdgeState[ei] != sim.EdgeLocal || c.EdgeVM[ei] != i {
					inBytes += edges[ei].Size
				}
			}
			total += (inBytes/c.p.CatBandwidth(vm.Cat) + task.Weight.Conservative()/cat.Speed) * cat.CostPerSec
		}
	}
	if math.IsInf(firstBook, 1) {
		firstBook = 0
	}
	maxNew := 0.0
	for _, pl := range plans {
		cat := c.p.Categories[pl.cat]
		work := 0.0
		for _, t := range pl.tasks {
			task := c.w.Task(t)
			inBytes := task.ExternalIn
			for _, ei := range c.In(t) {
				inBytes += edges[ei].Size
			}
			outBytes := task.ExternalOut
			for _, ei := range c.Out(t) {
				outBytes += edges[ei].Size
			}
			work += (inBytes+outBytes)/c.p.CatBandwidth(pl.cat) + task.Weight.Conservative()/cat.Speed
		}
		total += work*cat.CostPerSec + cat.InitCost
		if work > maxNew {
			maxNew = work
		}
	}
	ext := c.w.ExternalInSize() + c.w.ExternalOutSize()
	span := now + c.p.BootTime + maxNew - firstBook
	total += c.p.DCCost(ext, 0, 0, 0) // transfer part only
	total += span * c.p.DCCostPerSec
	// The inter-provider surcharge already incurred counts against the
	// budget like any other sunk cost; zero in the single-provider model.
	total += c.XferCost
	return total
}

// bootFailure handles a boot attempt that the fault trace doomed. Only
// the setup fee is billed (boot time itself is uncharged in the cost
// model), and every task queued on the VM goes through recovery.
func (c *controller) bootFailure(v int) {
	c.report.BootFailures++
	c.Kill(v, c.VMs[v].BookTime)
	c.VMs[v].BootFailed = true
	c.span.Event("boot-failure",
		obs.Int("vm", v), obs.Int("cat", c.VMs[v].Cat), obs.Float("at", c.Now()))
	c.recoverLost(v, c.collectLost(v, c.Now()))
}

// handleCrash kills VM v at instant tc: in-progress work and data that
// never reached the datacenter are lost; the uptime — useful or not —
// stays billed.
func (c *controller) handleCrash(v int, tc float64) {
	vm := &c.VMs[v]
	if !vm.Busy {
		// Skip queue entries that no longer concern this VM before
		// deciding whether it still had work.
		for vm.Next < len(vm.Queue) {
			t := vm.Queue[vm.Next]
			if c.Done[t] || c.Failed[t] || (c.Cur[t] != v && c.Replica[t] != v) {
				vm.Next++
				continue
			}
			break
		}
	}
	if !vm.Busy && vm.Next >= len(vm.Queue) {
		// The VM had already drained its queue and was released at its
		// last activity; the crash strikes air.
		return
	}
	// A spot VM's death is a revocation — the priced preemption event of
	// the market model — not an infrastructure crash: it is counted (and
	// traced) separately, and the billing it wastes accrues to the spot
	// rework account the spot planner's budget guard reserved for.
	spot := c.p.Categories[vm.Cat].Spot
	wasted := 0.0
	if vm.Busy {
		wasted = tc - c.Times[vm.Current].StageStart
	} else if w := tc - math.Max(vm.BootDone, vm.End); w > 0 {
		wasted = w
	}
	if spot {
		c.report.Revocations++
		c.report.SpotReworkCost += wasted * c.p.Categories[vm.Cat].CostPerSec
	} else {
		c.report.Crashes++
	}
	c.Wasted += wasted
	c.Kill(v, tc)
	lost := c.collectLost(v, tc)
	name := "crash"
	if spot {
		name = "revocation"
	}
	c.span.Event(name,
		obs.Int("vm", v), obs.Int("cat", c.VMs[v].Cat), obs.Float("at", tc),
		obs.Int("tasksLost", len(lost)))
	c.recoverLost(v, lost)
}

// collectLost computes which of VM v's tasks the failure destroyed, in
// queue (precedence) order. A finished task is lost when any of its
// outputs existed only on v: an output still local to v whose consumer
// has not finished, an upload the crash killed, or an external output
// still in flight at tc. Outputs already at the datacenter survive —
// checkpoint-on-upload — so their producers do not re-run. Unfinished
// tasks assigned to v are lost unless a live replica still carries
// them.
func (c *controller) collectLost(v int, tc float64) []wf.TaskID {
	queue := c.VMs[v].Queue
	lostFlag := make(map[wf.TaskID]bool)
	// Walk the queue in reverse so each finished producer sees the
	// verdict of its same-VM consumers (which sit later in the queue).
	for i := len(queue) - 1; i >= 0; i-- {
		t := queue[i]
		if c.Failed[t] {
			continue
		}
		owns, isReplica := c.Cur[t] == v, c.Replica[t] == v
		if !owns && !isReplica {
			continue
		}
		if !c.Done[t] {
			if isReplica {
				c.Replica[t] = -1 // the primary copy lives on
				continue
			}
			if rv := c.Replica[t]; rv >= 0 && !c.VMs[rv].Dead {
				c.Cur[t] = rv // the replica takes over
				c.Replica[t] = -1
				continue
			}
			c.Replica[t] = -1
			lostFlag[t] = true
			continue
		}
		lost := c.w.Task(t).ExternalOut > 0 && c.ExtDone[t] > tc
		for _, ei := range c.Out(t) {
			switch c.EdgeState[ei] {
			case sim.EdgeAtDC:
				// safe: the DC copy survives
			case sim.EdgePending:
				lost = true // the crash just killed this upload
			case sim.EdgeLocal:
				if c.EdgeVM[ei] != v {
					break
				}
				u := c.Edges()[ei].To
				if (!c.Done[u] && !c.Failed[u]) || lostFlag[u] {
					lost = true
				}
			}
		}
		if lost {
			lostFlag[t] = true
		}
	}
	var out []wf.TaskID
	for _, t := range queue {
		if lostFlag[t] {
			out = append(out, t)
		}
	}
	return out
}

// resetTask rolls a lost task back to not-run. Outputs already at the
// datacenter are kept; everything else returns to pending.
func (c *controller) resetTask(t wf.TaskID) {
	if c.Done[t] {
		c.Done[t] = false
		c.DoneCount--
	}
	for _, ei := range c.Out(t) {
		if c.EdgeState[ei] == sim.EdgeAtDC {
			// checkpoint-on-upload: DC copies survive and feed consumers
			// without re-running the producer.
			c.span.Event("checkpoint-restore",
				obs.Int("task", int(t)), obs.Int("consumer", int(c.Edges()[ei].To)),
				obs.Float("at", c.Now()))
			continue
		}
		c.Drop(ei)
	}
}

// failTask declares t permanently failed and cascades to every
// descendant that can no longer obtain its inputs. Consumers whose
// edge payload already reached the datacenter are spared.
func (c *controller) failTask(t wf.TaskID) {
	if c.Failed[t] {
		return
	}
	if c.Done[t] {
		c.Done[t] = false
		c.DoneCount--
	}
	c.Failed[t] = true
	c.FailedCount++
	c.Replica[t] = -1
	for _, ei := range c.Out(t) {
		if c.EdgeState[ei] == sim.EdgeAtDC {
			continue // the checkpointed copy still feeds the consumer
		}
		u := c.Edges()[ei].To
		if !c.Done[u] && !c.Failed[u] {
			c.failTask(u)
		}
	}
}

// recoverLost applies the recovery policy to the tasks a dead VM took
// down. Tasks over their retry allowance fail permanently; the rest
// are re-provisioned unless the budget guard projects the recovery to
// bust the budget, in which case they fail too and the execution
// degrades to a partial result.
func (c *controller) recoverLost(v int, lost []wf.TaskID) {
	if len(lost) == 0 {
		c.AdvanceAll()
		return
	}
	rec := c.inj.Recovery
	// Roll the whole batch back first: a permanent failure decided
	// below must see its lost consumers as pending — not still done —
	// so its cascade takes them down with it.
	for _, t := range lost {
		c.attempts[t]++
		c.span.Event("task-lost",
			obs.Int("task", int(t)), obs.Int("vm", v),
			obs.Int("attempt", c.attempts[t]), obs.Float("at", c.Now()))
		c.resetTask(t)
	}
	maxAttempt := 0
	var retry []wf.TaskID
	for _, t := range lost {
		if c.Failed[t] {
			continue // an exhausted ancestor's cascade got it
		}
		if c.attempts[t] > rec.Retries() {
			c.failTask(t)
			continue
		}
		if c.attempts[t] > maxAttempt {
			maxAttempt = c.attempts[t]
		}
		retry = append(retry, t)
	}
	if len(retry) == 0 {
		c.AdvanceAll()
		return
	}
	sameCat := c.VMs[v].Cat
	if c.p.Categories[sameCat].Spot {
		// Resubmit-on-revoke: a revoked spot VM's work moves to the
		// category's on-demand sibling (same speed, same provider), so a
		// repeat revocation cannot strike the same batch again.
		sib := c.p.OnDemandSibling(sameCat)
		c.span.Event("spot-resubmit",
			obs.Int("vm", v), obs.Int("fromCat", sameCat), obs.Int("toCat", sib),
			obs.Int("tasks", len(retry)), obs.Float("at", c.Now()))
		sameCat = sib
	}
	var plans []vmPlan
	switch rec.Kind {
	case fault.ResubmitFastest:
		plans = []vmPlan{{cat: c.fastest, tasks: retry}}
	case fault.Replicate:
		plans = []vmPlan{{cat: sameCat, tasks: retry}, {cat: c.fastest, tasks: retry}}
	default: // RetrySame
		plans = []vmPlan{{cat: sameCat, tasks: retry}}
	}
	if c.policy.Budget > 0 && c.projectedCost(plans, retry) > c.policy.Budget {
		c.report.RecoveriesVetoed++
		c.span.Event("recovery-vetoed",
			obs.Str("policy", rec.Kind.String()), obs.Int("tasks", len(retry)),
			obs.Float("at", c.Now()))
		for _, t := range retry {
			c.failTask(t)
		}
		c.AdvanceAll()
		return
	}
	c.report.Recoveries++
	if c.p.Categories[c.VMs[v].Cat].Spot {
		// The replacement VMs' setup fees are rework the revocation
		// caused: exactly the resubmit reserve the spot planner priced in.
		for _, pl := range plans {
			c.report.SpotReworkCost += c.p.Categories[pl.cat].InitCost
		}
	}
	backoff := rec.Backoff(maxAttempt)
	c.span.Event("recovery",
		obs.Str("policy", rec.Kind.String()), obs.Int("tasks", len(retry)),
		obs.Float("backoff", backoff), obs.Float("at", c.Now()))
	// The first planned VM carries the tasks, a second one races it; a
	// reboot onto the same category waits out the backoff.
	var vms [2]int
	for i, pl := range plans {
		notBefore := c.Now()
		if rec.Kind != fault.ResubmitFastest && i == 0 {
			notBefore += backoff
		}
		vms[i] = c.newVM(pl.cat, retry, notBefore)
	}
	for _, t := range retry {
		c.Cur[t] = vms[0]
		if len(plans) > 1 {
			c.Replica[t] = vms[1]
		}
	}
	c.AdvanceAll()
}

// taskFailure handles a transient execution failure at the instant the
// task would have completed: the compute time is wasted (and billed)
// and the task retries in place, subject to the retry allowance and
// the budget guard.
func (c *controller) taskFailure(v int, t wf.TaskID) {
	vm := &c.VMs[v]
	c.report.TaskFailures++
	c.Wasted += c.Now() - vm.ComputeStart
	if c.Now() > vm.End {
		vm.End = c.Now()
	}
	c.attempts[t]++
	retryable := c.attempts[t] <= c.inj.Recovery.Retries()
	if retryable && c.policy.Budget > 0 && c.projectedCost(nil, nil) > c.policy.Budget {
		c.report.RecoveriesVetoed++
		retryable = false
	}
	c.span.Event("task-failure",
		obs.Int("task", int(t)), obs.Int("vm", v),
		obs.Int("attempt", c.attempts[t]), obs.Bool("retrying", retryable),
		obs.Float("at", c.Now()))
	if !retryable {
		// Abandon this copy; a racing replica may still win.
		c.Abandon(v)
		if rv := c.Replica[t]; rv >= 0 {
			if c.Cur[t] == v {
				c.Cur[t] = rv
			}
			c.Replica[t] = -1
		} else {
			c.failTask(t)
		}
		c.AdvanceAll()
		return
	}
	c.StartCompute(v, t)
}

// finish turns the settled execution into its Report.
func (c *controller) finish() *Report {
	res := c.Collect()
	r := &c.report
	r.Makespan, r.TotalCost, r.DCCost, r.XferCost = res.Makespan, res.TotalCost, res.DCCost, res.XferCost
	r.NumVMs = res.NumVMs()
	for _, u := range res.VMs {
		if c.p.Categories[u.Cat].Spot {
			r.SpotVMs++
			r.SpotCost += u.Cost
		}
	}
	r.WastedSeconds = c.Wasted
	r.Completed = c.FailedCount == 0
	r.TasksDone = c.DoneCount
	r.TasksFailed = c.FailedCount
	r.TaskStatus = make([]fault.TaskStatus, len(c.Done))
	for t, done := range c.Done {
		if !done {
			r.TaskStatus[t] = fault.StatusFailed
		}
	}
	r.Tasks = append([]sim.TaskTimes(nil), res.Tasks...)
	if c.span != nil {
		c.span.Set(
			obs.Float("makespan", r.Makespan), obs.Float("cost", r.TotalCost),
			obs.Int("vms", r.NumVMs), obs.Bool("completed", r.Completed),
			obs.Int("tasksDone", r.TasksDone), obs.Int("tasksFailed", r.TasksFailed),
			obs.Int("crashes", r.Crashes), obs.Int("bootFailures", r.BootFailures),
			obs.Int("taskFailures", r.TaskFailures), obs.Int("recoveries", r.Recoveries),
			obs.Int("recoveriesVetoed", r.RecoveriesVetoed),
			obs.Int("migrations", len(r.Migrations)), obs.Int("migrationsVetoed", r.Vetoed),
			obs.Float("wastedSeconds", r.WastedSeconds))
		if c.p.HasSpot() {
			c.span.Set(
				obs.Int("spotVMs", r.SpotVMs), obs.Int("revocations", r.Revocations),
				obs.Float("spotCost", r.SpotCost), obs.Float("spotReworkCost", r.SpotReworkCost))
		}
	}
	return r
}
