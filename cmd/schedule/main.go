// Command schedule plans one workflow with one algorithm under a
// budget, prints the planner's view, and optionally saves the schedule
// as JSON for cmd/simulate.
//
// Usage:
//
//	schedule -wf montage90.json -alg heftbudg -budget 12.5 -out sched.json
//	schedule -type ligo -n 30 -sigma 0.5 -alg heftbudg+ -budget-factor 1.5
//	schedule -wf workflow.dax -alg heftbudg -budget 5
//	schedule -type montage -n 50 -alg heftbudg+ -trace plan-trace.json
//
// A workflow comes either from -wf (JSON, or Pegasus DAX when the file
// ends in .dax/.xml) or from the generator flags (-type/-n/-seed/
// -sigma). The budget comes either from -budget (dollars) or from
// -budget-factor (a multiple of the instance's cheapest-schedule
// cost). -trace records the planner's decision process — per-task
// candidate evaluations, budget-guard verdicts, refinement upgrades —
// as Chrome trace-event JSON, loadable in chrome://tracing or Perfetto.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"budgetwf/internal/exp"
	"budgetwf/internal/obs"
	"budgetwf/internal/platform"
	"budgetwf/internal/sched"
	"budgetwf/internal/wfgen"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "schedule:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("schedule", flag.ContinueOnError)
	var (
		wfPath  = fs.String("wf", "", "workflow file, JSON or DAX (overrides generator flags)")
		typ     = fs.String("type", "montage", "generated workflow family")
		n       = fs.Int("n", 30, "generated workflow size")
		seed    = fs.Uint64("seed", 0, "generator seed")
		sigma   = fs.Float64("sigma", exp.DefaultSigmaRatio, "σ/w̄ ratio")
		algName = fs.String("alg", "heftbudg", "algorithm: "+algNames()+", each also as <name>-spot (the spot-aware twin)")
		budget  = fs.Float64("budget", 0, "budget in dollars")
		factor  = fs.Float64("budget-factor", exp.DefaultBudgetFactor, "budget as a multiple of the cheapest-schedule cost (used when -budget is 0)")
		out     = fs.String("out", "", "write the schedule JSON here")
		traceTo = fs.String("trace", "", "write a Chrome trace-event JSON of the planner's decisions here")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	w, err := wfgen.Load(*wfPath, *typ, *n, *seed, *sigma)
	if err != nil {
		return err
	}
	p := platform.Default()
	alg, err := sched.ByName(sched.Name(*algName))
	if err != nil {
		return err
	}
	anchors, err := exp.ComputeAnchors(w, p)
	if err != nil {
		return err
	}
	b := *budget
	if b == 0 {
		b = *factor * anchors.CheapCost
	}

	var tr *obs.Trace
	ctx := context.Background()
	if *traceTo != "" {
		tr = obs.New("schedule")
		tr.Root().Set(obs.Str("workflow", w.Name), obs.Int("tasks", w.NumTasks()))
		ctx = obs.WithSpan(ctx, tr.Root())
	}
	s, err := sched.PlanContext(ctx, alg.Name, w, p, b)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "workflow       %s (%d tasks)\n", w.Name, w.NumTasks())
	fmt.Fprintf(stdout, "algorithm      %s\n", alg.Name)
	fmt.Fprintf(stdout, "budget         $%.4f (cheapest schedule costs $%.4f)\n", b, anchors.CheapCost)
	fmt.Fprintf(stdout, "planned VMs    %d\n", s.NumVMs())
	fmt.Fprintf(stdout, "est. makespan  %.1f s (budget-blind HEFT: %.1f s)\n", s.EstMakespan, anchors.BaselineMakespan)
	fmt.Fprintf(stdout, "est. cost      $%.4f\n", s.EstCost)
	perCat := make(map[int]int)
	for _, c := range s.VMCats {
		perCat[c]++
	}
	for k, cat := range p.Categories {
		if perCat[k] > 0 {
			fmt.Fprintf(stdout, "  %-8s ×%d (%.1e instr/s, $%.4f/h)\n", cat.Name, perCat[k], cat.Speed, cat.CostPerSec*3600)
		}
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := s.WriteJSON(f); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "schedule saved to %s\n", *out)
	}
	if tr != nil {
		tr.EndAll()
		f, err := os.Create(*traceTo)
		if err != nil {
			return err
		}
		if err := tr.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "planner trace written to %s (load in chrome://tracing)\n", *traceTo)
	}
	return nil
}

// algNames lists the planner registry for -alg's help, "|"-separated.
func algNames() string {
	var names []string
	for _, a := range sched.AllExtended() {
		names = append(names, string(a.Name))
	}
	return strings.Join(names, "|")
}
