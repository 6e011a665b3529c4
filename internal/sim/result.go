// Package sim is the discrete-event simulator that plays the role
// SimDag/SimGrid plays in the paper (§V-A): it executes a schedule
// produced by internal/sched on the platform model of §III, with
// realized (possibly stochastic) task weights, and reports the actual
// makespan and cost under Equations (1) and (2).
//
// Execution semantics (matching the planner's Equation (7) exactly, so
// that a deterministic simulation reproduces the planner's estimates):
//
//   - every data exchange between VMs transits the datacenter;
//   - a VM is booked when the inputs of its first task are all at the
//     datacenter, boots for an uncharged t_boot, then serves its task
//     list in order;
//   - before computing a task, the VM stages in all input data not
//     already local (one flow of the cumulated size at the VM link
//     bandwidth), starting when the VM is idle and the data is at the
//     datacenter;
//   - output data for consumers on other VMs, and external outputs,
//     are uploaded to the datacenter as soon as the task completes;
//     uploads overlap both computation and staging (full duplex);
//   - a VM is released once its last upload reaches the datacenter.
//
// With Platform.DCBandwidth == 0 (the paper's assumption) every flow
// proceeds at the nominal VM link bandwidth and completion times are
// exact. With a finite DCBandwidth the engine switches to a fluid
// max-min fair-sharing model, which reproduces the LIGO saturation
// anomaly the paper reports (§V-B).
package sim

import (
	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/rng"
	"budgetwf/internal/stoch"
	"budgetwf/internal/wf"
)

// BlameKind says which constraint bound the start of a task's staging
// phase; the CG+ refinement uses it to walk the critical path.
type BlameKind int

// Blame kinds, from weakest to strongest structural meaning.
const (
	// BlameNone: the task started at time zero (entry task, first on
	// its VM, external inputs only).
	BlameNone BlameKind = iota
	// BlameVMBusy: the previous task on the same VM finished last.
	BlameVMBusy
	// BlameDataArrival: an input edge's arrival at the datacenter
	// finished last; Pred identifies the producing task.
	BlameDataArrival
	// BlameBoot: the VM's boot completed last (only possible for the
	// first task of a VM when boot outlasts data arrival, which cannot
	// happen under the booking rule, but the fluid mode keeps it for
	// completeness).
	BlameBoot
)

// Blame records the binding start constraint of one task.
type Blame struct {
	Kind BlameKind
	// Pred is the producing task for BlameDataArrival, or the previous
	// task on the VM for BlameVMBusy.
	Pred wf.TaskID
}

// TaskTimes holds the realized timeline of one task.
type TaskTimes struct {
	// StageStart is when input staging began (equals ComputeStart when
	// nothing had to be staged).
	StageStart float64
	// ComputeStart is when the processor began executing instructions.
	ComputeStart float64
	// Finish is when the computation completed.
	Finish float64
}

// VMUsage summarizes one VM's life and cost.
type VMUsage struct {
	// Cat is the platform category index.
	Cat int
	// Book is when the VM was requested (boot begins).
	Book float64
	// Start is H_start,v: end of boot, beginning of billing.
	Start float64
	// End is H_end,v: when the VM's last upload reached the datacenter.
	End float64
	// Cost is C_v per Equation (1).
	Cost float64
	// NumTasks is how many tasks ran on the VM.
	NumTasks int
	// Busy is the time spent staging inputs or computing; the billed
	// remainder (End − Start − Busy) is idle waiting — billed all the
	// same, which is why the planner charges lifetime extensions.
	Busy float64
}

// Result is the outcome of one simulated execution.
type Result struct {
	// Makespan is H_end,last − H_start,first.
	Makespan float64
	// TotalCost is C_wf = Σ C_v + C_DC.
	TotalCost float64
	// DCCost is C_DC per Equation (2).
	DCCost float64
	// XferCost is the inter-provider transfer surcharge on a market
	// platform (zero in the single-provider model).
	XferCost float64
	// VMs describes every provisioned VM.
	VMs []VMUsage
	// Tasks holds per-task realized times, indexed by TaskID.
	Tasks []TaskTimes
	// Blames holds per-task binding start constraints.
	Blames []Blame
	// FirstBook is H_start,first, LastEvent is H_end,last.
	FirstBook, LastEvent float64
}

// NumVMs returns the number of provisioned VMs.
func (r *Result) NumVMs() int { return len(r.VMs) }

// VMCost returns Σ C_v.
func (r *Result) VMCost() float64 {
	total := 0.0
	for _, v := range r.VMs {
		total += v.Cost
	}
	return total
}

// FleetUtilization returns the busy fraction of all billed VM time —
// how much of the invoice paid for actual staging/computation rather
// than idle waiting.
func (r *Result) FleetUtilization() float64 {
	busy, span := 0.0, 0.0
	for _, v := range r.VMs {
		busy += v.Busy
		span += v.End - v.Start
	}
	if span <= 0 {
		return 0
	}
	return busy / span
}

// WithinBudget reports whether the realized total cost respects b.
func (r *Result) WithinBudget(b float64) bool { return r.TotalCost <= b }

// CriticalPath walks the blame chain back from the task that finished
// last and returns the task IDs on the path, from the entry-side end
// to the final task. CG+ re-assigns tasks along this path.
func (r *Result) CriticalPath() []wf.TaskID {
	if len(r.Tasks) == 0 {
		return nil
	}
	last := 0
	for t := range r.Tasks {
		if r.Tasks[t].Finish > r.Tasks[last].Finish {
			last = t
		}
	}
	var rev []wf.TaskID
	cur := wf.TaskID(last)
	for steps := 0; steps <= len(r.Tasks); steps++ {
		rev = append(rev, cur)
		b := r.Blames[cur]
		if b.Kind == BlameVMBusy || b.Kind == BlameDataArrival {
			cur = b.Pred
			continue
		}
		break
	}
	// Reverse to entry-first order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Weights helpers ----------------------------------------------------

// ConservativeWeights returns w̄+σ for every task: the weights the
// planner assumes (used when re-simulating candidate schedules inside
// HEFTBUDG+, Algorithm 5's simulate()).
func ConservativeWeights(w *wf.Workflow) []float64 {
	out := make([]float64, w.NumTasks())
	for _, t := range w.TasksView() {
		out[t.ID] = t.Weight.Conservative()
	}
	return out
}

// MeanWeights returns w̄ for every task.
func MeanWeights(w *wf.Workflow) []float64 {
	out := make([]float64, w.NumTasks())
	for _, t := range w.Tasks() {
		out[t.ID] = t.Weight.Mean
	}
	return out
}

// SampleWeights draws one realization of every task weight.
func SampleWeights(w *wf.Workflow, r *rng.RNG) []float64 {
	out := make([]float64, w.NumTasks())
	for _, t := range w.Tasks() {
		out[t.ID] = t.Weight.Sample(r)
	}
	return out
}

// SampleWeightsOutliers draws realizations under the heavy-tail
// outlier model of stoch.Outliers — the regime the online-rescheduling
// extension targets. Outlier fire/no-fire decisions come from a
// dedicated stream split off r, so the weight draws consumed from r
// are identical to SampleWeights for any Prob (common random numbers).
func SampleWeightsOutliers(w *wf.Workflow, r *rng.RNG, o stoch.Outliers) []float64 {
	decisions := r.Split(stoch.OutlierStreamLabel)
	out := make([]float64, w.NumTasks())
	for _, t := range w.Tasks() {
		out[t.ID] = o.Sample(t.Weight, r, decisions)
	}
	return out
}

// Run simulates the schedule with the given realized weights.
func Run(w *wf.Workflow, p *platform.Platform, s *plan.Schedule, weights []float64) (*Result, error) {
	e, err := NewExec(w, p, s, weights)
	if err != nil {
		return nil, err
	}
	if err := e.Run(); err != nil {
		return nil, err
	}
	return e.Collect(), nil
}

// RunDeterministic simulates under conservative weights (w̄+σ): the
// planner's own world. Used by the refinement algorithms and by tests
// asserting planner/simulator consistency.
func RunDeterministic(w *wf.Workflow, p *platform.Platform, s *plan.Schedule) (*Result, error) {
	return Run(w, p, s, ConservativeWeights(w))
}

// RunStochastic samples task weights and simulates one execution.
func RunStochastic(w *wf.Workflow, p *platform.Platform, s *plan.Schedule, r *rng.RNG) (*Result, error) {
	return Run(w, p, s, SampleWeights(w, r))
}
