package sched

import (
	"fmt"
	"math"

	"budgetwf/internal/platform"
	"budgetwf/internal/wf"
)

// BudgetInfo is the outcome of the budget decomposition of §IV-A
// (Algorithm 1, getBudgCalc): the initial budget minus conservative
// reserves for the datacenter and for VM initializations, divided
// among tasks in proportion to their estimated durations.
type BudgetInfo struct {
	// Initial is B_ini, the user-given budget.
	Initial float64
	// DCReserve covers the datacenter usage and external transfers,
	// estimated on a sequential single-VM execution.
	DCReserve float64
	// InitReserve covers one category-1 initialization per task
	// (n·c_ini,1): the conservative "as many VMs as tasks" assumption.
	InitReserve float64
	// Calc is B_calc = Initial − DCReserve − InitReserve, floored at 0.
	Calc float64
	// Shares holds B_T for every task (Equation (5)); the shares sum
	// to Calc exactly (up to floating point).
	Shares []float64
	// SeqDuration is the estimated single-VM sequential execution time
	// used for the datacenter reserve.
	SeqDuration float64
}

// ComputeBudget runs the decomposition for the given workflow,
// platform and initial budget.
//
// The datacenter reserve follows the paper's conservative estimate: a
// sequential execution of all tasks on a single VM of the cheapest
// category, during which the datacenter is billed per second, plus the
// external-world transfer volume billed at c_iof. There are no
// internal transfers in that reference execution (single VM). The
// initialization reserve books one cheapest-category setup per task.
func ComputeBudget(w *wf.Workflow, p *platform.Platform, budget float64) (*BudgetInfo, error) {
	if budget < 0 || math.IsNaN(budget) {
		return nil, fmt.Errorf("sched: invalid budget %v", budget)
	}
	n := w.NumTasks()
	ext := w.ExternalInSize() + w.ExternalOutSize()
	seq := w.TotalConservativeWork()/p.Categories[p.Cheapest()].Speed + ext/p.Bandwidth
	info := &BudgetInfo{
		Initial:     budget,
		DCReserve:   seq*p.DCCostPerSec + ext*p.TransferCostPerByte,
		InitReserve: float64(n) * p.Categories[p.Cheapest()].InitCost,
		SeqDuration: seq,
	}
	// On a market platform every VM↔DC byte may pay an inter-provider
	// surcharge; the reserve books the worst-case link for every
	// internal transfer (each crosses twice: upload then staging) and
	// for the external volume. Zero on single-provider platforms, so
	// the paper's decomposition is unchanged there.
	if m := p.MaxXferCostPerByte(); m > 0 {
		info.DCReserve += (2*w.TotalDataSize() + ext) * m
	}
	info.Calc = budget - info.DCReserve - info.InitReserve
	if info.Calc < 0 {
		info.Calc = 0
	}

	// Proportional division (Equation (5)): B_T = t_calc,T/t_calc,wf · B_calc
	// with t_calc,T = (w̄_T+σ_T)/s̄ + size(d_pred,T)/bw. Because
	// Σ_T size(d_pred,T) = d_max, the per-task estimates sum to
	// t_calc,wf and the shares sum to B_calc.
	meanSpeed := p.MeanSpeed()
	tWF := w.TotalConservativeWork()/meanSpeed + w.TotalDataSize()/p.Bandwidth
	info.Shares = make([]float64, n)
	if tWF <= 0 {
		return info, nil
	}
	for _, t := range w.TasksView() {
		tT := t.Weight.Conservative()/meanSpeed + w.InputSize(t.ID)/p.Bandwidth
		info.Shares[t.ID] = tT / tWF * info.Calc
	}
	return info, nil
}

// pot is the running leftover-budget account of Algorithms 3 and 4:
// whatever a task does not consume of its share is handed to the next
// scheduled task. It can go negative when even the cheapest host
// exceeds the allowance; the overrun then reduces later allowances.
type pot struct {
	value float64
}

// allowance returns the budget available to a task with share b.
func (p *pot) allowance(share float64) float64 { return share + p.value }

// settle records the actual planner cost charged against an allowance.
func (p *pot) settle(allowance, cost float64) { p.value = allowance - cost }
