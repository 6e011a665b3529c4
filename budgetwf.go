// Package budgetwf is a library for budget-aware scheduling of
// scientific workflows with stochastic task weights on heterogeneous
// IaaS Cloud platforms. It reproduces, end to end, the system of
//
//	Y. Caniou, E. Caron, A. Kong Win Chang, Y. Robert,
//	"Budget-aware scheduling algorithms for scientific workflows with
//	stochastic task weights on heterogeneous IaaS Cloud platforms",
//	IPDPSW 2018 (hal-01808831).
//
// The package bundles:
//
//   - a workflow model (DAGs with Gaussian task weights and data
//     transfers), plus generators for the Pegasus benchmark families
//     CYBERSHAKE, LIGO and MONTAGE;
//   - an IaaS platform model: heterogeneous VM categories with
//     per-second billing, setup costs and boot delays, communicating
//     through a single datacenter;
//   - nine scheduling algorithms: the MIN-MIN and HEFT baselines, the
//     paper's budget-aware MIN-MINBUDG / HEFTBUDG, the refined
//     HEFTBUDG+ / HEFTBUDG+INV, and the extended competitors BDT and
//     CG/CG+;
//   - a discrete-event simulator executing schedules under realized
//     stochastic weights;
//   - an experiment harness regenerating every figure and table of the
//     paper's evaluation section.
//
// The typical flow is: obtain a *Workflow (generate, build, or load),
// pick a *Platform (DefaultPlatform matches the paper's Table II),
// plan with ScheduleWith under a budget, naming the algorithm by one
// of the Alg* constants, and then Simulate the plan once or
// ReplicateBudget it many times:
//
//	w, _ := budgetwf.Generate(budgetwf.Montage, 90, 0)
//	w = w.WithSigmaRatio(0.5)
//	p := budgetwf.DefaultPlatform()
//	s, _ := budgetwf.ScheduleWith(budgetwf.AlgHeftBudg, w, p, 0.10) // a $0.10 budget
//	res, _ := budgetwf.ReplicateBudget(w, p, s, 25, 42, 0.10)
//	fmt.Println(res.Makespan.Mean, res.Cost.Mean, res.ValidFrac)
//
// The Example functions of this package and internal/pool are the
// runnable scenarios; `go test -run Example ./...`
// runs them and checks what each prints.
package budgetwf

import (
	"context"

	"budgetwf/internal/exp"
	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/rng"
	"budgetwf/internal/sched"
	"budgetwf/internal/sim"
	"budgetwf/internal/stats"
	"budgetwf/internal/stoch"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// Workflow is a DAG of tasks with stochastic weights. See NewWorkflow,
// Generate and LoadWorkflow for the three ways to obtain one.
type Workflow = wf.Workflow

// Task is one vertex of a workflow.
type Task = wf.Task

// TaskID identifies a task within its workflow.
type TaskID = wf.TaskID

// Edge is a data dependency between two tasks.
type Edge = wf.Edge

// Dist is the Gaussian weight distribution of a task (mean number of
// instructions and standard deviation).
type Dist = stoch.Dist

// NewWorkflow returns an empty named workflow ready for AddTask /
// AddEdge construction.
func NewWorkflow(name string) *Workflow { return wf.New(name) }

// LoadWorkflow reads a workflow from a JSON file produced by
// (*Workflow).SaveFile or cmd/wfgen. Files ending in .dax or .xml are
// parsed as Pegasus DAX v3 documents instead — the native format of
// the Pegasus generator behind the paper's benchmarks.
func LoadWorkflow(path string) (*Workflow, error) { return wf.Load(path) }

// WorkflowType selects a generator family.
type WorkflowType = wfgen.Type

// The workflow families: the paper's three Pegasus benchmarks, two
// extension families from the same suite, and generic synthetic
// shapes.
const (
	CyberShake  = wfgen.CyberShake
	Ligo        = wfgen.Ligo
	Montage     = wfgen.Montage
	Epigenomics = wfgen.Epigenomics
	Sipht       = wfgen.Sipht
	Random      = wfgen.Random
	Chain       = wfgen.Chain
	ForkJoin    = wfgen.ForkJoin
	BagOfTasks  = wfgen.BagOfTasks
)

// Generate builds one workflow instance with n tasks. Generated
// workflows carry σ = 0; apply WithSigmaRatio to instantiate
// uncertainty, as the paper does with ratios 0.25–1.00.
func Generate(t WorkflowType, n int, seed uint64) (*Workflow, error) {
	return wfgen.Generate(t, n, seed)
}

// Platform describes the IaaS provider: VM categories, datacenter
// costs, bandwidth and boot time.
type Platform = platform.Platform

// VMCategory is one VM type (speed, per-second cost, setup cost).
type VMCategory = platform.Category

// DefaultPlatform returns the paper's Table II instantiation (three
// categories, 1 Gb/s links, per-second billing). See DESIGN.md for the
// reconstruction of the unreadable published values.
func DefaultPlatform() *Platform { return platform.Default() }

// Schedule maps every task of a workflow to a provisioned VM with a
// per-VM execution order.
type Schedule = plan.Schedule

// AlgorithmName names one of the nine scheduling algorithms.
type AlgorithmName = sched.Name

// The algorithm registry names.
const (
	AlgMinMin          = sched.NameMinMin
	AlgHeft            = sched.NameHeft
	AlgMinMinBudg      = sched.NameMinMinBudg
	AlgHeftBudg        = sched.NameHeftBudg
	AlgHeftBudgPlus    = sched.NameHeftBudgPlus
	AlgHeftBudgPlusInv = sched.NameHeftBudgPlusInv
	AlgBDT             = sched.NameBDT
	AlgCG              = sched.NameCG
	AlgCGPlus          = sched.NameCGPlus
)

// ScheduleWith plans with the named algorithm — one of the Alg*
// constants, or any name Algorithms and AlgorithmsExtended list —
// under the budget; the budget-blind baselines (MIN-MIN, HEFT, PEFT)
// ignore it.
func ScheduleWith(name AlgorithmName, w *Workflow, p *Platform, budget float64) (*Schedule, error) {
	a, err := sched.ByName(name)
	if err != nil {
		return nil, err
	}
	return a.Plan(w, p, budget)
}

// ScheduleWithContext is ScheduleWith under a context: cancellation
// and deadlines are polled between placement steps inside the
// planners, so an abandoned call stops consuming CPU almost
// immediately.
func ScheduleWithContext(ctx context.Context, name AlgorithmName, w *Workflow, p *Platform, budget float64) (*Schedule, error) {
	return sched.PlanContext(ctx, name, w, p, budget)
}

// Algorithms returns the names of all nine algorithms in the paper's
// order.
func Algorithms() []AlgorithmName {
	var out []AlgorithmName
	for _, a := range sched.All() {
		out = append(out, a.Name)
	}
	return out
}

// SimResult is the realized outcome of one simulated execution.
type SimResult = sim.Result

// Simulate executes the schedule once with task weights sampled from
// their distributions (seeded for reproducibility).
func Simulate(w *Workflow, p *Platform, s *Schedule, seed uint64) (*SimResult, error) {
	return sim.RunStochastic(w, p, s, rng.New(seed))
}

// SimulateDeterministic executes the schedule under the conservative
// weights (w̄+σ) the planner assumed.
func SimulateDeterministic(w *Workflow, p *Platform, s *Schedule) (*SimResult, error) {
	return sim.RunDeterministic(w, p, s)
}

// Replication aggregates repeated stochastic executions of one
// schedule.
type Replication struct {
	// Makespan and Cost summarize the realized executions.
	Makespan stats.Summary
	Cost     stats.Summary
	// ValidFrac is the fraction of executions whose cost stayed within
	// Budget (only meaningful if Budget > 0).
	ValidFrac float64
	// Budget echoes the budget used for the validity check.
	Budget float64
}

// ReplicateBudget runs n (at least 1) stochastic executions of the
// schedule and summarizes them; budget 0 disables the validity
// accounting. On a platform with spot categories the executions run
// through the online executor, revocations included (replication i
// under revocation seed seed + i), and Makespan summarizes the
// executions that completed.
func ReplicateBudget(w *Workflow, p *Platform, s *Schedule, n int, seed uint64, budget float64) (*Replication, error) {
	b, err := replicate(w, p, s, n, seed, budget)
	if err != nil {
		return nil, err
	}
	return &Replication{
		Makespan:  stats.Summarize(b.Makespans),
		Cost:      stats.Summarize(b.Costs),
		ValidFrac: b.Frac(b.InBudget),
		Budget:    budget,
	}, nil
}

// replicate is the facade's use of the repository's one replication
// loop (DESIGN §2): Monte Carlo, weights from seed.
func replicate(w *Workflow, p *Platform, s *Schedule, n int, seed uint64, budget float64) (exp.Batch, error) {
	return exp.Replay{
		Workflow: w, Platform: p, Schedule: s, Budget: budget, Reps: n,
		Weights: rng.New(seed), FaultSeed: seed,
	}.Run(context.Background())
}
