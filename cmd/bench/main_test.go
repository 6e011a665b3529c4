package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"budgetwf/internal/bench"
)

// TestRunSimSuiteThenCheck is the end-to-end smoke path CI exercises:
// run one suite at -benchtime=1x into a temp dir, then validate the
// produced file with -check.
func TestRunSimSuiteThenCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real benchmark iterations")
	}
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-suite", "sim", "-benchtime", "1x", "-out", dir}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	path := filepath.Join(dir, "BENCH_sim.json")
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{"-check", "-suite", "sim", "-out", dir}, &out); err != nil {
		t.Fatalf("check: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "ok (") {
		t.Fatalf("check output: %s", out.String())
	}

	// A tampered baseline must fail the check.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Replace(raw, []byte(`"suite": "sim"`), []byte(`"suite": "nope"`), 1)
	if bytes.Equal(bad, raw) {
		t.Fatal("tamper target not found in baseline")
	}
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-check", "-suite", "sim", "-out", dir}, &out); err == nil {
		t.Fatal("tampered baseline passed -check")
	}
}

// TestCheckGatesDaemonBaseline: -check is a gate, not a parser. The
// committed daemon baseline passes it and prints its limits; the same
// file with schedule-warm's allocations raised to where a hit that
// parses again would put them fails it.
func TestCheckGatesDaemonBaseline(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_daemon.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_daemon.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-check", "-suite", "daemon", "-out", dir}, &out); err != nil {
		t.Fatalf("committed daemon baseline fails -check: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "schedule-warm/montage/n0050 + wf-decode/montage/n0050 + wf-content-key/montage/n0050 allocs_per_op") ||
		strings.Count(out.String(), ": ok\n") != 4 {
		t.Errorf("check output lacks the gate report, one line per limit:\n%s", out.String())
	}

	f, err := bench.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Results {
		if f.Results[i].Case == "schedule-warm/montage/n0050" {
			f.Results[i].AllocsPerOp *= 4
		}
	}
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-check", "-suite", "daemon", "-out", dir}, &out); err == nil || !strings.Contains(err.Error(), "daemon gate") {
		t.Fatalf("regressed daemon baseline passed -check: %v", err)
	}
}

// TestCheckGatesPlannerBaseline: the committed planner baseline passes
// -check and prints its nine limits per family; the same file with a
// HEFTBUDG+ case allocating per candidate again (a clone and an engine
// for each of its moves — what the suite read before the in-place
// evaluator) fails it.
func TestCheckGatesPlannerBaseline(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_planner.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_planner.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-check", "-suite", "planner", "-out", dir}, &out); err != nil {
		t.Fatalf("committed planner baseline fails -check: %v\n%s", err, out.String())
	}
	if got := strings.Count(out.String(), ": ok\n"); got != 33 {
		t.Errorf("check output has %d gate lines, want eleven per family:\n%s", got, out.String())
	}

	f, err := bench.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.Results {
		if f.Results[i].Case == "heftbudg+/ligo/n0050" {
			f.Results[i].AllocsPerOp = 390_000
		}
	}
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-check", "-suite", "planner", "-out", dir}, &out); err == nil || !strings.Contains(err.Error(), "planner gate") {
		t.Fatalf("regressed planner baseline passed -check: %v", err)
	}
}

func TestCheckMissingFile(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-check", "-suite", "sim", "-out", t.TempDir()}, &out)
	if err == nil {
		t.Fatal("missing baseline passed -check")
	}
}

func TestSelectSuites(t *testing.T) {
	all, err := selectSuites("all")
	if err != nil || len(all) != 4 {
		t.Fatalf("all: %v %v", all, err)
	}
	two, err := selectSuites("sim, daemon")
	if err != nil || len(two) != 2 || two[0] != "sim" || two[1] != "daemon" {
		t.Fatalf("list: %v %v", two, err)
	}
	if _, err := selectSuites("bogus"); err == nil {
		t.Fatal("unknown suite accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-suite", "bogus"}, &out); err == nil {
		t.Fatal("unknown suite accepted")
	}
	if err := run([]string{"-suite", "sim", "-benchtime", "not-a-time", "-out", t.TempDir()}, &out); err == nil {
		t.Fatal("bad benchtime accepted")
	}
}
