// Command bench runs the repository's benchmark suites and maintains
// the committed BENCH_*.json baselines at the repo root. Each suite
// runs at the GOMAXPROCS and benchtime bench.Suites records for it;
// -benchtime overrides the latter, as a smoke run does:
//
//	bench -out .                               # make bench-json
//	bench -suite sim -benchtime 1x -out /tmp/b # smoke, no committed file
//	bench -check -out .                        # make bench-json-check
//
// -check validates baselines against the current suites (schema, case
// list, GOMAXPROCS) and prints every limit of the suites with its
// reading and verdict.
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
	benchtime := fs.String("benchtime", "", "per-case measuring budget in place of each suite's own (testing -benchtime syntax: 100ms, 1x, ...)")
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
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	for _, name := range suites {
		f, err := bench.Suites()[name].Run(*seed, *benchtime, stdout)
		if err != nil {
			return err
		}
		path := filepath.Join(*out, "BENCH_"+name+".json")
		if err := f.WriteFile(path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", path)
	}
	return nil
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

// checkFiles holds each suite's committed baseline to the suite the
// code defines (bench.Suite.Check), so a PR that changes a suite must
// regenerate its baseline and a regression fails the check rather
// than merely parsing.
func checkFiles(dir string, seed uint64, suites []string, stdout io.Writer) error {
	var failures []string
	for _, name := range suites {
		s := bench.Suites()[name]
		path := filepath.Join(dir, "BENCH_"+name+".json")
		cases, err := s.Cases(seed)
		if err != nil {
			return fmt.Errorf("building suite %s: %w", name, err)
		}
		f, err := bench.ReadFile(path)
		if err != nil {
			failures = append(failures, err.Error())
			continue
		}
		report, err := s.Check(f, bench.CaseNames(cases))
		for _, line := range report {
			fmt.Fprintf(stdout, "%s: %s\n", path, line)
		}
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", path, err))
			continue
		}
		fmt.Fprintf(stdout, "%s: ok (%d cases, %s, GOMAXPROCS %d, seed %d)\n", path, len(f.Results), f.GoVersion, f.GOMAXPROCS, f.Seed)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d baseline(s) invalid:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}
