package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"budgetwf/internal/exp"
	"budgetwf/internal/fault"
	"budgetwf/internal/platform"
	"budgetwf/internal/rng"
	"budgetwf/internal/sched"
	"budgetwf/internal/stats"
)

func TestRunPlansAndSimulates(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-type", "montage", "-n", "30", "-alg", "heftbudg", "-reps", "5"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"stochastic executions", "makespan", "valid"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunWithDeadline(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-type", "ligo", "-n", "30", "-alg", "heft", "-reps", "5", "-deadline", "1"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "deadline") {
		t.Error("deadline report missing")
	}
	// A 1-second deadline is unmeetable.
	if !strings.Contains(out.String(), "0.0% met the 1 s deadline") {
		t.Errorf("deadline stats wrong:\n%s", out.String())
	}
}

func TestRunGanttAndTrace(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-type", "montage", "-n", "30", "-alg", "heftbudg", "-reps", "2", "-gantt", "-print-trace"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Gantt:") {
		t.Error("gantt missing")
	}
	if !strings.Contains(out.String(), "compute_start") {
		t.Error("trace missing")
	}
}

func TestRunScheduleRoundTrip(t *testing.T) {
	dir := t.TempDir()
	wfPath := dir + "/w.json"
	w, err := loadWorkflow("", "cybershake", 30, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SaveFile(wfPath); err != nil {
		t.Fatal(err)
	}
	// Plan and save a schedule with the sibling tool's logic: easiest
	// is to plan in-process and write it ourselves.
	var out strings.Builder
	if err := run([]string{"-wf", wfPath, "-alg", "heftbudg", "-budget", "5", "-reps", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "CYBERSHAKE-30-seed1") {
		t.Error("workflow file not used")
	}
}

func TestRunRejectsMismatchedSchedule(t *testing.T) {
	dir := t.TempDir()
	wfPath := dir + "/w.json"
	w, err := loadWorkflow("", "montage", 30, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.SaveFile(wfPath); err != nil {
		t.Fatal(err)
	}
	// A schedule for a DIFFERENT (larger) workflow must be rejected.
	big, err := loadWorkflow("", "montage", 60, 0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	s, err := planFor(big)
	if err != nil {
		t.Fatal(err)
	}
	schedPath := dir + "/s.json"
	f, err := createFile(schedPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var out strings.Builder
	if err := run([]string{"-wf", wfPath, "-sched", schedPath, "-reps", "1"}, &out); err == nil {
		t.Error("mismatched schedule accepted")
	}
}

func TestRunChromeTrace(t *testing.T) {
	path := t.TempDir() + "/trace.json"
	var out strings.Builder
	err := run([]string{"-type", "montage", "-n", "30", "-alg", "heftbudg", "-reps", "1", "-chrome-trace", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := readFileHelper(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(data, "traceEvents") {
		t.Error("chrome trace missing traceEvents")
	}
}

func TestRunSVGGantt(t *testing.T) {
	path := t.TempDir() + "/gantt.svg"
	var out strings.Builder
	err := run([]string{"-type", "ligo", "-n", "30", "-alg", "heftbudg", "-reps", "1", "-svg-gantt", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := readFileHelper(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(data, "<svg") {
		t.Errorf("not SVG: %.40s", data)
	}
}

func TestRunFaultInjection(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-type", "montage", "-n", "30", "-alg", "heftbudg", "-reps", "5",
		"-fault-rate", "0.5", "-fault-boot-fail", "0.05", "-fault-recovery", "replicate"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fault-injected executions", "success", "recovery replicate", "budget guard"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunFaultInjectionZeroRateMatchesPlain(t *testing.T) {
	// A spec with only transient failures at probability 0 still takes
	// the fault path; its makespan line must agree with the plain run
	// over the same -sim-seed streams.
	var plain, faulty strings.Builder
	common := []string{"-type", "ligo", "-n", "30", "-alg", "heftbudg", "-reps", "5"}
	if err := run(common, &plain); err != nil {
		t.Fatal(err)
	}
	if err := run(append(append([]string{}, common...), "-fault-rate", "1e-12"), &faulty); err != nil {
		t.Fatal(err)
	}
	pick := func(s, prefix string) string {
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, prefix) {
				return strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(line, prefix)), " s (completed runs)")
			}
		}
		return ""
	}
	want := strings.TrimSuffix(pick(plain.String(), "makespan"), " s")
	got := pick(faulty.String(), "makespan")
	if want == "" || got != want {
		t.Errorf("fault path diverged at λ≈0: %q vs %q\nplain:\n%s\nfaulty:\n%s",
			got, want, plain.String(), faulty.String())
	}
}

func TestRunFaultSweepCLI(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-type", "montage", "-n", "12", "-reps", "3", "-fault-sweep", "0, 0.5"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fault sweep", "success", "recovery retry-same"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if got := strings.Count(out.String(), "\n"); got != 4 { // header + column row + 2 rates
		t.Errorf("want 4 lines, got %d:\n%s", got, out.String())
	}

	// The table the README documents is an assertion: the command it
	// shows must print the block under it, line for line.
	const cmdLine = "$ go run ./cmd/simulate -type ligo -n 30 -fault-sweep 0,0.01,0.1,0.5\n"
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, block, found := strings.Cut(string(readme), cmdLine)
	want, _, closed := strings.Cut(block, "```")
	if !found || !closed {
		t.Fatalf("README.md no longer documents %q", cmdLine)
	}
	out.Reset()
	if err := run([]string{"-type", "ligo", "-n", "30", "-fault-sweep", "0,0.01,0.1,0.5"}, &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != want {
		t.Errorf("README.md documents\n%s\nbut the command prints\n%s", want, out.String())
	}
}

func TestRunFaultFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-type", "montage", "-n", "12", "-fault-sweep", "0,0.5", "-wf", "nope.json"},
		{"-type", "montage", "-n", "12", "-fault-sweep", " , "},
		{"-type", "montage", "-n", "12", "-fault-sweep", "0,banana"},
		{"-type", "montage", "-n", "12", "-reps", "1", "-fault-rate", "0.5", "-fault-recovery", "bogus"},
		{"-type", "montage", "-n", "12", "-reps", "1", "-fault-boot-fail", "1.5"},
		{"-type", "montage", "-n", "12", "-reps", "1", "-fault-rate", "0.5", "-gantt"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestRunRefusesNonPositiveReps: a replication count below 1 is an error
// in every mode — naming the field, before anything is printed — where
// the analytic and fault modes used to report NaN% and -0.00 per run.
func TestRunRefusesNonPositiveReps(t *testing.T) {
	for _, args := range [][]string{
		{"-n", "20", "-reps", "0"},
		{"-n", "20", "-reps", "0", "-estimator", "analytic"},
		{"-n", "20", "-reps", "-3", "-fault-rate", "0.1"},
		{"-n", "20", "-reps", "-3", "-fault-sweep", "0,0.1"},
	} {
		var out strings.Builder
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), "replications") {
			t.Errorf("args %v: error %v, want one naming replications", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("args %v: printed a report before refusing:\n%s", args, out.String())
		}
	}
}

func TestRunWritesSpanTrace(t *testing.T) {
	path := t.TempDir() + "/spans.json"
	var out strings.Builder
	err := run([]string{"-type", "montage", "-n", "20", "-alg", "heftbudg", "-reps", "3", "-trace", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := readFileHelper(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"traceEvents", "plan:heftbudg", "budget-guard", "replication"} {
		if !strings.Contains(data, want) {
			t.Errorf("span trace missing %q", want)
		}
	}
	if got := strings.Count(data, `"replication"`); got != 3 {
		t.Errorf("span trace has %d replication events, want 3", got)
	}
}

func TestRunWritesFaultSpanTrace(t *testing.T) {
	path := t.TempDir() + "/fault-spans.json"
	var out strings.Builder
	err := run([]string{"-type", "montage", "-n", "20", "-alg", "heftbudg", "-reps", "3",
		"-fault-boot-fail", "0.9", "-fault-retries", "1", "-trace", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	data, err := readFileHelper(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"traceEvents", "replication", "boot-failure"} {
		if !strings.Contains(data, want) {
			t.Errorf("fault span trace missing %q", want)
		}
	}
}

func TestRunAnalyticEstimator(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-type", "montage", "-n", "30", "-alg", "heftbudg", "-reps", "8", "-estimator", "analytic"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"analytic estimate", "quantile samples", "P(cost > budget)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	// Deterministic: a second run reproduces the report byte for byte.
	var again strings.Builder
	if err := run([]string{"-type", "montage", "-n", "30", "-alg", "heftbudg", "-reps", "8", "-estimator", "analytic"}, &again); err != nil {
		t.Fatal(err)
	}
	if out.String() != again.String() {
		t.Errorf("analytic report not deterministic:\n%s\nvs\n%s", out.String(), again.String())
	}
}

func TestRunAnalyticEstimatorFlagErrors(t *testing.T) {
	cases := map[string][]string{
		"unknown estimator": {"-type", "montage", "-n", "30", "-estimator", "montecarlo"},
		"with gantt":        {"-type", "montage", "-n", "30", "-estimator", "analytic", "-gantt"},
		"with svg":          {"-type", "montage", "-n", "30", "-estimator", "analytic", "-svg-gantt", "x.svg"},
		"with faults":       {"-type", "montage", "-n", "30", "-estimator", "analytic", "-fault-rate", "0.1"},
		"with fault sweep":  {"-type", "montage", "-n", "30", "-estimator", "analytic", "-fault-sweep", "0,0.1"},
		"with deadline":     {"-type", "montage", "-n", "30", "-estimator", "analytic", "-deadline", "100"},
	}
	for name, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("%s: run succeeded, want an error", name)
		}
	}
}

// TestRunPrintsReplayBatch: in each mode the report's makespan and cost
// lines are stats.Summarize of the exp.Batch the same Replay returns —
// the CLI prints the one replication loop's tally, it does not keep one
// of its own.
func TestRunPrintsReplayBatch(t *testing.T) {
	w, err := loadWorkflow("", "montage", 20, 0, exp.DefaultSigmaRatio)
	if err != nil {
		t.Fatal(err)
	}
	p := platform.Default()
	a, err := exp.ComputeAnchors(w, p)
	if err != nil {
		t.Fatal(err)
	}
	budget := exp.DefaultBudgetFactor * a.CheapCost
	s, err := sched.HeftBudg(w, p, budget)
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		args   []string
		replay exp.Replay
	}{
		"mc":       {nil, exp.Replay{}},
		"analytic": {[]string{"-estimator", "analytic"}, exp.Replay{Estimator: exp.EstimatorAnalytic}},
		"faults": {[]string{"-fault-rate", "5", "-fault-seed", "3"},
			exp.Replay{Faults: &fault.Spec{CrashRatePerHour: []float64{5}, Seed: 3, Recovery: "retry-same"}}},
	} {
		var out strings.Builder
		if err := run(append([]string{"-type", "montage", "-n", "20", "-reps", "7", "-sim-seed", "5"}, tc.args...), &out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r := tc.replay
		r.Workflow, r.Platform, r.Schedule, r.Budget, r.Reps, r.Weights = w, p, s, budget, 7, rng.New(5)
		b, err := r.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, want := range []string{
			fmt.Sprintf("makespan   %s s", stats.Summarize(b.Makespans)),
			fmt.Sprintf("cost       %s $\n", stats.Summarize(b.Costs)),
		} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: report lacks %q:\n%s", name, want, out.String())
			}
		}
	}
}
