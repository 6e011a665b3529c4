package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"budgetwf/internal/plan"
	"budgetwf/internal/sched"
	"budgetwf/internal/wfgen"
)

func TestRunGeneratedWorkflow(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-type", "montage", "-n", "30", "-alg", "heftbudg", "-budget-factor", "1.5"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"MONTAGE-30-seed0", "heftbudg", "planned VMs", "est. makespan"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunSavesSchedule(t *testing.T) {
	path := t.TempDir() + "/s.json"
	var out strings.Builder
	err := run([]string{"-type", "ligo", "-n", "30", "-alg", "minminbudg", "-budget", "2", "-out", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := plan.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVMs() == 0 {
		t.Error("saved schedule has no VMs")
	}
}

func TestRunWorkflowFromFile(t *testing.T) {
	wfPath := t.TempDir() + "/w.json"
	var out strings.Builder
	// Generate a workflow file using wfgen's JSON format via the wf
	// package (the same code path cmd/wfgen uses).
	if err := run([]string{"-type", "cybershake", "-n", "30", "-alg", "heft"}, &out); err != nil {
		t.Fatal(err)
	}
	// Round-trip through a file.
	if err := writeGenerated(wfPath); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-wf", wfPath, "-alg", "cg", "-budget", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "cg") {
		t.Error("file-based run missing algorithm name")
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-alg", "bogus"}, &out); err == nil {
		t.Error("bogus algorithm accepted")
	}
	if err := run([]string{"-wf", "/does/not/exist.json"}, &out); err == nil {
		t.Error("missing workflow file accepted")
	}
}

// TestAlgHelpFollowsTheRegistry checks that -alg's help names every
// algorithm in the registry (PEFT included) and that each one's -spot
// twin, which the help promises, resolves.
func TestAlgHelpFollowsTheRegistry(t *testing.T) {
	help := "|" + algNames() + "|"
	for _, a := range sched.AllExtended() {
		if !strings.Contains(help, "|"+string(a.Name)+"|") {
			t.Errorf("-alg help %q misses %s", help, a.Name)
		}
		if _, err := sched.ByName(a.Name + "-spot"); err != nil {
			t.Errorf("%s-spot does not resolve: %v", a.Name, err)
		}
	}
	if !strings.Contains(help, "|"+string(sched.NamePeft)+"|") {
		t.Errorf("-alg help %q misses %s", help, sched.NamePeft)
	}
}

// TestDefaultsAreThePapers checks that -sigma and -budget-factor
// default to σ/w̄ = 0.5 and β = 1.5.
func TestDefaultsAreThePapers(t *testing.T) {
	var implicit, explicit strings.Builder
	if err := run([]string{"-type", "ligo", "-n", "30"}, &implicit); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-type", "ligo", "-n", "30", "-sigma", "0.5", "-budget-factor", "1.5"}, &explicit); err != nil {
		t.Fatal(err)
	}
	if implicit.String() != explicit.String() {
		t.Errorf("defaults differ from -sigma 0.5 -budget-factor 1.5:\n%s\nvs\n%s", implicit.String(), explicit.String())
	}
}

func writeGenerated(path string) error {
	w, err := wfgen.Load("", "montage", 30, 0, 0.5)
	if err != nil {
		return err
	}
	return w.SaveFile(path)
}

func TestRunWritesPlannerTrace(t *testing.T) {
	path := t.TempDir() + "/plan-trace.json"
	var out strings.Builder
	err := run([]string{"-type", "montage", "-n", "20", "-alg", "heftbudg+", "-budget-factor", "2", "-trace", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "planner trace written to") {
		t.Errorf("no trace confirmation:\n%s", out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not Chrome trace-event JSON: %v", err)
	}
	guards, planSpans := 0, 0
	for _, e := range doc.TraceEvents {
		if e.Name == "budget-guard" && e.Ph == "i" {
			guards++
		}
		if e.Name == "plan:heftbudg+" && e.Ph == "X" {
			planSpans++
		}
	}
	if guards != 20 {
		t.Errorf("trace has %d budget-guard instants, want 20", guards)
	}
	if planSpans != 1 {
		t.Errorf("trace has %d plan:heftbudg+ spans, want 1", planSpans)
	}
}
