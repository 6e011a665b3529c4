package budgetwf

import (
	"budgetwf/internal/exp"
	"budgetwf/internal/wfgen"
)

// Anchors are the budget landmarks of one workflow instance: the cost
// and makespan of the cheapest (single slow VM) schedule, of the
// budget-blind HEFT schedule, and a "high" budget where budget-aware
// algorithms match their baselines.
type Anchors = exp.Anchors

// ComputeAnchors derives the budget landmarks for a workflow.
func ComputeAnchors(w *Workflow, p *Platform) (*Anchors, error) {
	return exp.ComputeAnchors(w, p)
}

// CheapestSchedule builds the paper's "min_cost" reference schedule:
// every task on a single VM of the cheapest category.
func CheapestSchedule(w *Workflow, p *Platform) (*Schedule, error) {
	return exp.CheapestSchedule(w, p)
}

// FigureConfig scales a figure reproduction; the zero value defaults
// to the paper's methodology (90 tasks, 5 instances, 25 replications).
type FigureConfig = exp.FigureConfig

// ResultTable is a rectangular experiment result renderable as ASCII
// or CSV.
type ResultTable = exp.Table

// Figure regenerates the data behind the paper's Figure n (1–4), one
// table per paper workflow family: the baselines against the
// budget-aware variants (1), the refined variants (2), the comparison
// with BDT and CG (3), and the refined variants against CG+ (4).
func Figure(n int, cfg FigureConfig) ([]*ResultTable, error) { return exp.Figure(n, cfg) }

// SigmaSweep regenerates the extended-version uncertainty experiment:
// budget sweeps at σ/w̄ ∈ {0.25, 0.5, 0.75, 1.0}.
func SigmaSweep(cfg FigureConfig, t WorkflowType, alg AlgorithmName) ([]*ResultTable, error) {
	return exp.SigmaSweep(cfg, t, alg)
}

// ContentionAblation regenerates the §V-B anomaly study: LIGO budget
// overruns when the datacenter bandwidth saturates.
func ContentionAblation(cfg FigureConfig, dcBandwidth float64) ([]*ResultTable, error) {
	return exp.ContentionAblation(cfg, dcBandwidth)
}

// PaperWorkflowTypes lists the three Pegasus families of the
// evaluation, in figure order.
func PaperWorkflowTypes() []WorkflowType { return wfgen.AllPaperTypes() }
