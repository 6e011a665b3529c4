// Command bench runs the repository's deterministic benchmark suites
// and maintains the committed BENCH_*.json baselines at the repo root.
//
// Regenerate one baseline (`make bench-json` runs one line per suite):
//
//	GOMAXPROCS=1 bench -suite daemon -benchtime 10x -out .
//
// Smoke-run one suite without touching files:
//
//	bench -suite sim -benchtime 1x -out /tmp/bench
//
// Validate baselines against the current suite definitions and gate
// them (what CI does — schema intact, case list unchanged, and the
// same-run relations of bench.GateDaemon — a warm cache hit allocates
// less than a content-key hit by at least what decoding the workflow and
// deriving its key allocate and at most 150 objects, takes at most
// 0.75 of that hit's time, and
// the workflow decodes in at most 24 allocations — bench.GatePlanner — a
// HEFTBUDG+ plan allocates like a list planner, not per candidate, and
// takes at most 40× HEFTBUDG's time at n=50, MIN-MINBUDG stays within
// 8.5× of HEFTBUDG's time and 4× of its bytes at n=1000, and HEFTBUDG,
// CG and BDT allocate
// per plan, at most 2× at n=1000 what they do at n=50 —
// bench.GateSim — a replication batch allocates per batch, not per
// execution, and scoring it takes at most half of simulating it — and
// bench.GateEst — an analytic estimate allocates a fixed handful of
// objects, never per task):
//
//	bench -check -out .
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"budgetwf/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	suite := fs.String("suite", "all", "suite to run: "+strings.Join(bench.SuiteNames(), ", ")+", or all")
	benchtime := fs.String("benchtime", "2x", "per-case measuring budget (testing -benchtime syntax: 100ms, 1x, ...)")
	out := fs.String("out", ".", "directory for BENCH_<suite>.json files")
	check := fs.Bool("check", false, "validate existing BENCH files against the current suite definitions instead of running")
	seed := fs.Uint64("seed", 1, "seed for workflow generation and weight sampling")
	if err := fs.Parse(args); err != nil {
		return err
	}

	suites, err := selectSuites(*suite)
	if err != nil {
		return err
	}
	if *check {
		return checkFiles(*out, *seed, suites, stdout)
	}
	if err := bench.SetBenchtime(*benchtime); err != nil {
		return fmt.Errorf("bad -benchtime: %w", err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	for _, name := range suites {
		cases, err := bench.Suites()[name](*seed)
		if err != nil {
			return fmt.Errorf("building suite %s: %w", name, err)
		}
		fmt.Fprintf(stdout, "suite %s: %d cases, benchtime %s\n", name, len(cases), *benchtime)
		f, err := bench.RunSuite(name, *seed, cases, stdout)
		if err != nil {
			return err
		}
		path := benchPath(*out, name)
		if err := f.WriteFile(path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
	return nil
}

func benchPath(dir, suite string) string {
	return filepath.Join(dir, "BENCH_"+suite+".json")
}

func selectSuites(arg string) ([]string, error) {
	if arg == "all" {
		return bench.SuiteNames(), nil
	}
	var out []string
	for _, name := range strings.Split(arg, ",") {
		name = strings.TrimSpace(name)
		if _, ok := bench.Suites()[name]; !ok {
			return nil, fmt.Errorf("unknown suite %q (have %s)", name, strings.Join(bench.SuiteNames(), ", "))
		}
		out = append(out, name)
	}
	return out, nil
}

// gates holds the same-run relations a suite's numbers must satisfy.
var gates = map[string]func(*bench.File) ([]string, error){
	"daemon":  bench.GateDaemon,
	"est":     bench.GateEst,
	"planner": bench.GatePlanner,
	"sim":     bench.GateSim,
}

// checkFiles validates each suite's committed baseline: parseable,
// schema-consistent, and with exactly the case list the current code
// defines — so a PR that changes a suite must regenerate its baseline —
// and, where the suite has a gate, within the limits it sets on the
// measured numbers, so a regression fails the check rather than
// merely parsing.
func checkFiles(dir string, seed uint64, suites []string, stdout io.Writer) error {
	var failures []string
	for _, name := range suites {
		path := benchPath(dir, name)
		cases, err := bench.Suites()[name](seed)
		if err != nil {
			return fmt.Errorf("building suite %s: %w", name, err)
		}
		f, err := bench.ReadFile(path)
		if err != nil {
			failures = append(failures, err.Error())
			continue
		}
		if err := f.Validate(name, bench.CaseNames(cases)); err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", path, err))
			continue
		}
		if gate := gates[name]; gate != nil {
			report, err := gate(f)
			for _, line := range report {
				fmt.Fprintf(stdout, "%s: %s\n", path, line)
			}
			if err != nil {
				failures = append(failures, fmt.Sprintf("%s: %v", path, err))
				continue
			}
		}
		fmt.Fprintf(stdout, "%s: ok (%d cases, %s, seed %d)\n", path, len(f.Results), f.GoVersion, f.Seed)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d baseline(s) invalid:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}
