package budgetwf

import "budgetwf/internal/sched"

// PlannerOptions switches individual design choices of the
// budget-aware planners on or off — the knobs behind the ablation
// study (`paperfigs -fig ablations`). The zero value is the paper's
// algorithm.
type PlannerOptions = sched.Options

// HeftBudgWithOptions is HeftBudg under the given options: disable the
// conservative weights, the pot, or the Algorithm-1 reserves to
// measure their contribution.
func HeftBudgWithOptions(w *Workflow, p *Platform, budget float64, opt PlannerOptions) (*Schedule, error) {
	return sched.HeftBudgOpt(w, p, budget, opt)
}

// MinMinBudgWithOptions is MinMinBudg under the given options.
func MinMinBudgWithOptions(w *Workflow, p *Platform, budget float64, opt PlannerOptions) (*Schedule, error) {
	return sched.MinMinBudgOpt(w, p, budget, opt)
}

// AlgPeft names the PEFT extension baseline (Arabnejad & Barbosa,
// TPDS 2014): HEFT's successor with one-step lookahead through an
// Optimistic Cost Table. Not part of the paper's algorithm set;
// resolvable via ScheduleWith and listed by AlgorithmsExtended.
const AlgPeft = sched.NamePeft

// AlgorithmsExtended returns the paper's nine algorithms plus the
// extension baselines.
func AlgorithmsExtended() []AlgorithmName {
	var out []AlgorithmName
	for _, a := range sched.AllExtended() {
		out = append(out, a.Name)
	}
	return out
}
