// Command simulate replays a schedule under stochastic task weights
// and reports realized makespan/cost statistics, the paper's
// evaluation loop for a single (workflow, schedule) pair.
//
// Usage:
//
//	simulate -wf montage90.json -sched sched.json -reps 25 -budget 12.5
//	simulate -type ligo -n 30 -sigma 0.5 -alg heftbudg -budget-factor 1.5 -reps 100
//	simulate -type montage -n 30 -alg heftbudg -gantt -print-trace
//	simulate -type montage -n 30 -alg heftbudg -trace spans.json
//	simulate -type montage -n 30 -alg heftbudg -estimator analytic
//
// -estimator analytic replaces the Monte Carlo replications with the
// moment-propagation estimator (internal/est): one deterministic pass
// whose report reads the replications off the fitted quantile grid. It
// is incompatible with fault injection, the visualization flags and
// -deadline, all of which need realized executions.
//
// Either load a schedule produced by cmd/schedule (-sched), or plan
// in-process with -alg. Workflows come from -wf (JSON or DAX) or the
// generator flags. -deadline additionally reports the bi-criteria
// objective of Equation (3). -trace writes the run's span tree —
// planner decisions when planning in-process, one span per
// replication, and under fault injection the crash/recovery event
// stream — as Chrome trace-event JSON (chrome://tracing / Perfetto);
// -chrome-trace instead renders the first execution's per-VM timeline.
//
// The -fault-* flags inject VM crashes, boot failures and transient
// task failures into the executions and report robustness metrics:
//
//	simulate -type montage -n 30 -alg heftbudg -fault-rate 0.1 -fault-recovery replicate
//	simulate -type ligo -n 30 -fault-sweep 0,0.01,0.1,0.5 -fault-boot-fail 0.02
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"budgetwf/internal/est"
	"budgetwf/internal/exp"
	"budgetwf/internal/fault"
	"budgetwf/internal/obs"
	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/rng"
	"budgetwf/internal/sched"
	"budgetwf/internal/sim"
	"budgetwf/internal/stats"
	"budgetwf/internal/viz"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simulate:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	var (
		wfPath    = fs.String("wf", "", "workflow file, JSON or DAX (overrides generator flags)")
		typ       = fs.String("type", "montage", "generated workflow family")
		n         = fs.Int("n", 30, "generated workflow size")
		seed      = fs.Uint64("seed", 0, "generator seed")
		sigma     = fs.Float64("sigma", exp.DefaultSigmaRatio, "σ/w̄ ratio")
		schedPath = fs.String("sched", "", "schedule JSON from cmd/schedule")
		algName   = fs.String("alg", "heftbudg", "algorithm used when -sched is absent")
		budget    = fs.Float64("budget", 0, "budget in dollars")
		factor    = fs.Float64("budget-factor", exp.DefaultBudgetFactor, "budget as a multiple of the cheapest-schedule cost")
		deadline  = fs.Float64("deadline", 0, "deadline in seconds (0 = unconstrained)")
		reps      = fs.Int("reps", exp.DefaultReps, "number of stochastic executions")
		simSeed   = fs.Uint64("sim-seed", 42, "simulation RNG seed")
		estName   = fs.String("estimator", "mc", `estimator: "mc" (Monte Carlo replication) or "analytic" (moment propagation, internal/est)`)
		gantt     = fs.Bool("gantt", false, "render an ASCII Gantt chart of the first execution")
		prTrace   = fs.Bool("print-trace", false, "print a per-task trace of the first execution")
		traceTo   = fs.String("trace", "", "write a Chrome trace-event JSON of the run's span tree here")
		chrome    = fs.String("chrome-trace", "", "write a Chrome trace-event JSON of the first execution's VM timeline here")
		svgGantt  = fs.String("svg-gantt", "", "write an SVG Gantt chart of the first execution here")

		faultRate     = fs.Float64("fault-rate", 0, "per-VM crash rate λ in crashes/hour (0 disables crashes)")
		faultBoot     = fs.Float64("fault-boot-fail", 0, "probability a VM boot attempt fails")
		faultTask     = fs.Float64("fault-task-fail", 0, "probability one task execution fails transiently")
		faultSeed     = fs.Uint64("fault-seed", 1, "fault-trace RNG seed")
		faultRecovery = fs.String("fault-recovery", "retry-same", "recovery policy: retry-same, resubmit-fastest or replicate")
		faultRetries  = fs.Int("fault-retries", 0, "recovery attempts per task before it fails permanently (0 = default 3)")
		faultBackoff  = fs.Float64("fault-backoff", 0, "reboot backoff in seconds for same-category recoveries")
		faultSweep    = fs.String("fault-sweep", "", `comma-separated λ grid in crashes/hour (e.g. "0,0.01,0.1,0.5"): run a robustness sweep over generated instances`)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Every run is on the paper's platform, so all the estimator rule can
	// decline here is fault injection.
	faulty := *faultSweep != "" || *faultRate > 0 || *faultBoot > 0 || *faultTask > 0
	if err := exp.CheckEstimator(*estName, nil, faulty); err != nil {
		return err
	}
	views := *gantt || *prTrace || *chrome != "" || *svgGantt != ""
	if *estName == exp.EstimatorAnalytic {
		// The analytic estimator produces distributions, not executions:
		// there is no realized timeline to visualize and no joint
		// (makespan, cost) sample for the bi-criteria objective.
		switch {
		case views:
			return fmt.Errorf("visualization flags need a realized execution; use -estimator mc")
		case *deadline > 0:
			return fmt.Errorf("-deadline (the Eq. 3 bi-criteria objective) needs joint samples; use -estimator mc")
		}
	}

	spec := &fault.Spec{
		BootFailProb:     *faultBoot,
		TaskFailProb:     *faultTask,
		Seed:             *faultSeed,
		Recovery:         *faultRecovery,
		MaxRetries:       *faultRetries,
		RebootBackoffSec: *faultBackoff,
	}
	if *faultSweep != "" {
		if *wfPath != "" || *schedPath != "" {
			return fmt.Errorf("-fault-sweep generates its own instances; it is incompatible with -wf and -sched")
		}
		return runFaultSweep(stdout, *faultSweep, *typ, *n, *sigma, *seed, *reps, *algName, *factor, spec)
	}

	w, err := loadWorkflow(*wfPath, *typ, *n, *seed, *sigma)
	if err != nil {
		return err
	}
	p := platform.Default()
	anchors, err := exp.ComputeAnchors(w, p)
	if err != nil {
		return err
	}
	b := *budget
	if b == 0 {
		b = *factor * anchors.CheapCost
	}

	var tr *obs.Trace
	if *traceTo != "" {
		tr = obs.New("simulate")
		tr.Root().Set(obs.Str("workflow", w.Name), obs.Int("tasks", w.NumTasks()))
	}

	var s *plan.Schedule
	if *schedPath != "" {
		f, err := os.Open(*schedPath)
		if err != nil {
			return err
		}
		s, err = plan.ReadJSON(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		alg, err := sched.ByName(sched.Name(*algName))
		if err != nil {
			return err
		}
		ctx := context.Background()
		if tr != nil {
			ctx = obs.WithSpan(ctx, tr.Root())
		}
		if s, err = sched.PlanContext(ctx, alg.Name, w, p, b); err != nil {
			return err
		}
	}
	if err := s.Validate(w, p.NumCategories()); err != nil {
		return fmt.Errorf("schedule does not fit workflow: %w", err)
	}

	if faulty && views {
		return fmt.Errorf("visualization flags are not supported under fault injection")
	}

	// The three modes are one replication loop (DESIGN §2): the fault flags
	// and the estimator decide how the schedule is replayed, on the same
	// weight streams in all of them, so λ → 0 reproduces the plain report.
	replay := exp.Replay{
		Workflow: w, Platform: p, Schedule: s, Budget: b, Reps: *reps, Estimator: *estName,
		Weights: rng.New(*simSeed),
	}
	if faulty {
		spec.CrashRatePerHour = []float64{*faultRate}
		replay.Faults = spec // a fresh fault trace per replication: -fault-seed + i
	}
	if tr != nil {
		replay.Span = tr.Root()
	}
	batch, err := replay.Run(context.Background())
	if err != nil {
		return err
	}
	if views {
		// The first execution, event by event; Score equals it bit for bit.
		r, err := sim.RunStochastic(w, p, s, rng.New(*simSeed).Split(0))
		if err != nil {
			return err
		}
		if err := writeViews(stdout, w, s, r, *gantt, *prTrace, *svgGantt, *chrome); err != nil {
			return err
		}
	}

	mk, cost := stats.Summarize(batch.Makespans), stats.Summarize(batch.Costs)
	runs := float64(batch.Reps)
	switch {
	case faulty:
		// Budget-exhausted replications degrade to partial results and lower
		// the success rate; they are not errors.
		fmt.Fprintf(stdout, "workflow   %s, schedule with %d VMs, %d fault-injected executions\n", w.Name, s.NumVMs(), batch.Reps)
		fmt.Fprintf(stdout, "budget     $%.4f\n", b)
		fmt.Fprintf(stdout, "faults     λ=%g/hour, boot-fail %.3f, task-fail %.3f, recovery %s\n",
			spec.CrashRatePerHour[0], spec.BootFailProb, spec.TaskFailProb, spec.RecoveryPolicy().Kind)
		fmt.Fprintf(stdout, "success    %.1f%% completed all tasks; %.1f%% within budget\n",
			100*float64(batch.Completed)/runs, 100*float64(batch.InBudget)/runs)
		fmt.Fprintf(stdout, "makespan   %s s (completed runs)\n", mk)
		fmt.Fprintf(stdout, "cost       %s $\n", cost)
		fmt.Fprintf(stdout, "failures   %.2f crashes, %.2f boot failures, %.2f transient failures per run\n",
			batch.Frac(batch.Crashes), batch.Frac(batch.BootFailures), batch.Frac(batch.TaskFailures))
		fmt.Fprintf(stdout, "recovery   %.2f recoveries, %.2f vetoed by the budget guard, %.1f s wasted per run\n",
			batch.Frac(batch.Recoveries), batch.Frac(batch.Vetoed), batch.WastedSeconds/runs)

	case *estName == exp.EstimatorAnalytic:
		// The tail probability is read off the fitted distribution itself,
		// not off the quantile samples.
		e, err := est.Compute(w, p, s)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "workflow   %s, schedule with %d VMs, analytic estimate over %d quantile samples\n", w.Name, s.NumVMs(), batch.Reps)
		fmt.Fprintf(stdout, "budget     $%.4f\n", b)
		fmt.Fprintf(stdout, "makespan   %s s\n", mk)
		fmt.Fprintf(stdout, "cost       %s $\n", cost)
		fmt.Fprintf(stdout, "valid      %.1f%% of quantile samples within budget (P(cost > budget) = %.3f)\n",
			100*float64(batch.InBudget)/runs, e.OverrunProb(b))

	default:
		fmt.Fprintf(stdout, "workflow   %s, schedule with %d VMs, %d stochastic executions\n", w.Name, s.NumVMs(), batch.Reps)
		fmt.Fprintf(stdout, "budget     $%.4f\n", b)
		fmt.Fprintf(stdout, "makespan   %s s\n", mk)
		fmt.Fprintf(stdout, "cost       %s $\n", cost)
		fmt.Fprintf(stdout, "valid      %.1f%% of executions within budget\n", 100*batch.Frac(batch.InBudget))
		if *deadline > 0 {
			objStats, err := batch.Objective(sim.Objective{Deadline: *deadline, Budget: b})
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "deadline   %.1f%% met the %.0f s deadline; %.1f%% met the full objective (Eq. 3)\n",
				100*objStats.Frac(objStats.DeadlineMet), *deadline, 100*objStats.Frac(objStats.BothMet))
		}
	}
	return writeSpanTrace(stdout, tr, *traceTo)
}

// writeViews renders one realized execution in every form asked for:
// ASCII Gantt and per-task trace on stdout, SVG Gantt and Chrome
// trace-event timeline into their files.
func writeViews(stdout io.Writer, w *wf.Workflow, s *plan.Schedule, r *sim.Result, gantt, prTrace bool, svgGantt, chrome string) error {
	if gantt {
		if err := r.WriteGantt(stdout, w, s, 100); err != nil {
			return err
		}
	}
	if prTrace {
		if err := r.WriteTrace(stdout, w, s); err != nil {
			return err
		}
	}
	if svgGantt != "" {
		err := writeFile(svgGantt, func(f io.Writer) error { return viz.RenderGanttSVG(f, w, s, r, "Gantt — "+w.Name) })
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "SVG gantt written to %s\n", svgGantt)
	}
	if chrome != "" {
		if err := writeFile(chrome, func(f io.Writer) error { return r.WriteChromeTrace(f, w, s) }); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "chrome trace written to %s (load in chrome://tracing)\n", chrome)
	}
	return nil
}

// writeFile creates path and fills it with render, reporting the first
// of the create, render and close errors.
func writeFile(path string, render func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := render(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSpanTrace closes the tracer and writes its span tree as Chrome
// trace-event JSON. A nil tracer is a no-op.
func writeSpanTrace(stdout io.Writer, tr *obs.Trace, path string) error {
	if tr == nil {
		return nil
	}
	tr.EndAll()
	if err := writeFile(path, tr.WriteChrome); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "span trace written to %s (load in chrome://tracing)\n", path)
	return nil
}

// runFaultSweep evaluates the generated scenario under a λ grid via
// exp.RunFaultSweep and prints one row per crash rate.
func runFaultSweep(stdout io.Writer, grid, typ string, n int, sigma float64, seed uint64, reps int, algName string, factor float64, spec *fault.Spec) error {
	rates, err := parseRates(grid)
	if err != nil {
		return err
	}
	t, err := wfgen.ParseType(typ)
	if err != nil {
		return err
	}
	alg, err := sched.ByName(sched.Name(algName))
	if err != nil {
		return err
	}
	sc := exp.FaultScenario{
		Scenario:     exp.Scenario{Type: t, N: n, SigmaRatio: sigma, Seed: seed, Reps: reps},
		Rates:        rates,
		Alg:          alg,
		BudgetFactor: factor,
		Spec:         *spec,
	}
	res, err := exp.RunFaultSweep(sc)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "fault sweep  %s n=%d, %d instances × %d reps per λ, mean budget $%.4f (β=%.2f), recovery %s\n",
		typ, n, res.Scenario.Instances, res.Scenario.Reps, res.Budget, factor, spec.RecoveryPolicy().Kind)
	fmt.Fprintf(stdout, "%8s %8s %9s %14s %12s %8s %8s %7s %7s %7s\n",
		"λ/hour", "success", "inBudget", "makespan", "cost", "crashes", "recov", "vetoed", "mk×", "cost×")
	for _, pt := range res.Points {
		fmt.Fprintf(stdout, "%8g %7.1f%% %8.1f%% %14.1f %12.4f %8.2f %8.2f %7.2f %7.3f %7.3f\n",
			pt.Rate, 100*pt.SuccessRate, 100*pt.WithinBudget, pt.Makespan.Mean, pt.Cost.Mean,
			pt.Crashes, pt.Recoveries, pt.RecoveriesVetoed, pt.MakespanFactor, pt.CostFactor)
	}
	return nil
}

// parseRates parses a comma-separated λ grid.
func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		lam, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -fault-sweep entry %q: %w", part, err)
		}
		rates = append(rates, lam)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("-fault-sweep lists no rates")
	}
	return rates, nil
}

func loadWorkflow(path, typ string, n int, seed uint64, sigma float64) (*wf.Workflow, error) {
	if path != "" {
		if strings.HasSuffix(path, ".dax") || strings.HasSuffix(path, ".xml") {
			return wf.LoadDAX(path)
		}
		return wf.LoadFile(path)
	}
	t, err := wfgen.ParseType(typ)
	if err != nil {
		return nil, err
	}
	w, err := wfgen.Generate(t, n, seed)
	if err != nil {
		return nil, err
	}
	return w.WithSigmaRatio(sigma), nil
}
