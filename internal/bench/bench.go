// Package bench is the repo's deterministic benchmark suite: named
// benchmark cases over the planners, the Monte Carlo simulator, the
// analytic estimator and the budgetwfd daemon, measured with
// testing.Benchmark into the committed BENCH_*.json baselines at the
// repository root. The case list is a deterministic function of the
// fixed seed and the files carry no timestamp or hostname, so two
// files diff cleanly on stable keys; absolute numbers are
// machine-dependent, so compare files from one machine, or ratios.
//
// Each suite is one Suite value: its cases, the GOMAXPROCS and
// benchtime its baseline is recorded at, and its limits — relations
// between cases of one run, which hold on any machine. `make bench-json`
// regenerates the files; `cmd/bench -check` validates committed files
// against the current suites and prints every limit with its reading.
package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

// SchemaVersion identifies the BENCH_*.json layout. Bump on any
// incompatible field change and teach Validate about the old ones.
const SchemaVersion = 1

// Case is one named benchmark within a suite.
type Case struct {
	Name  string
	Bench func(b *testing.B)
}

// Result is the measurement of one case.
type Result struct {
	Case        string  `json:"case"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// OpsPerSec is the throughput view of NsPerOp (1e9/NsPerOp); for
	// the daemon suite an "op" is one HTTP request, so this is the
	// request throughput.
	OpsPerSec float64 `json:"ops_per_sec"`
}

// File is one BENCH_<suite>.json baseline.
type File struct {
	SchemaVersion int      `json:"schema_version"`
	Suite         string   `json:"suite"`
	GoVersion     string   `json:"go_version"`
	GOMAXPROCS    int      `json:"gomaxprocs"`
	Seed          uint64   `json:"seed"`
	Results       []Result `json:"results"`
}

// minMeasured is the least time a case is measured for. A case that its
// benchtime covered in less is measured again for this long, smoke runs
// (-benchtime 1x) included: ten iterations of a 50 µs plan are within
// the host's noise, and a ratio between two such cases once read 37.8×
// against a 40× limit with the code unchanged.
const minMeasured = 100 * time.Millisecond

// groupTurns is how many turns each case a time limit compares takes,
// turn about with the others, so that drift on the host over the
// seconds of a run moves both sides of a ratio alike.
const groupTurns = 5

var initOnce sync.Once

// SetBenchtime sets the per-case measuring budget (testing's
// -test.benchtime syntax: a duration like "100ms" or an iteration
// count like "1x"). Callable from a non-test binary.
func SetBenchtime(v string) error {
	initOnce.Do(testing.Init)
	return flag.Set("test.benchtime", v)
}

// RunSuite measures every case and assembles the baseline file. The
// alternate cases are measured turn about, groupTurns times each, every
// turn at the benchtime and for at least minMeasured/groupTurns, and
// each result sums its case's turns; every other case is measured once,
// for at least minMeasured, each reported to progress. Case panics
// propagate: a benchmark that cannot run is a bug, not a measurement.
func RunSuite(suite string, seed uint64, cases []Case, alternate []string, progress io.Writer) (*File, error) {
	initOnce.Do(testing.Init)
	if err := validateCaseList(cases); err != nil {
		return nil, fmt.Errorf("bench: suite %s: %w", suite, err)
	}
	f := &File{
		SchemaVersion: SchemaVersion,
		Suite:         suite,
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Seed:          seed,
	}
	byName := map[string]Case{}
	for _, c := range cases {
		byName[c.Name] = c
	}
	measured := map[string]testing.BenchmarkResult{}
	for _, c := range cases {
		group, turns := []string{c.Name}, 1
		if slices.Contains(alternate, c.Name) {
			group, turns = alternate, groupTurns
		}
		if _, done := measured[c.Name]; done {
			turns = 0 // measured in turns with an earlier case
		}
		for turn := 0; turn < turns; turn++ {
			for _, name := range group {
				r := measure(byName[name], minMeasured/time.Duration(turns))
				if r.N == 0 {
					return nil, fmt.Errorf("bench: case %s/%s did not run", suite, name)
				}
				sum := measured[name]
				sum.N += r.N
				sum.T += r.T
				sum.MemAllocs += r.MemAllocs
				sum.MemBytes += r.MemBytes
				measured[name] = sum
			}
		}
		r := measured[c.Name]
		res := Result{
			Case:        c.Name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		res.OpsPerSec = 1e9 / res.NsPerOp
		f.Results = append(f.Results, res)
		fmt.Fprintf(progress, "  %s/%s: %.0f ns/op, %d allocs/op\n", suite, c.Name, res.NsPerOp, res.AllocsPerOp)
	}
	return f, nil
}

// measure runs c at the benchtime in force and, when that took less
// than floor, again for floor.
func measure(c Case, floor time.Duration) testing.BenchmarkResult {
	bf := func(b *testing.B) {
		b.ReportAllocs()
		c.Bench(b)
	}
	r := testing.Benchmark(bf)
	if r.N > 0 && r.T < floor {
		// Both values parse: one was in force, the other is a duration.
		prev := flag.Lookup("test.benchtime").Value.String()
		flag.Set("test.benchtime", floor.String())
		r = testing.Benchmark(bf)
		flag.Set("test.benchtime", prev)
	}
	return r
}

// WriteFile writes the baseline to path with stable formatting
// (two-space indent, trailing newline) so regeneration produces
// minimal diffs.
func (f *File) WriteFile(path string) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(f); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// ReadFile parses a committed baseline, rejecting unknown fields so a
// drifted schema fails loudly.
func ReadFile(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &f, nil
}

// Validate checks the baseline's internal consistency and, when
// wantCases is non-nil, that the measured case list matches the
// current suite definition exactly (same names, same order) — the
// property PR-over-PR diffs rely on.
func (f *File) Validate(wantSuite string, wantCases []string) error {
	if f.SchemaVersion != SchemaVersion {
		return fmt.Errorf("bench: schema_version %d, want %d", f.SchemaVersion, SchemaVersion)
	}
	if wantSuite != "" && f.Suite != wantSuite {
		return fmt.Errorf("bench: suite %q, want %q", f.Suite, wantSuite)
	}
	if f.GoVersion == "" {
		return fmt.Errorf("bench: missing go_version")
	}
	if f.GOMAXPROCS < 1 {
		return fmt.Errorf("bench: gomaxprocs %d", f.GOMAXPROCS)
	}
	seen := map[string]bool{}
	for i, r := range f.Results {
		if r.Case == "" {
			return fmt.Errorf("bench: result %d has no case name", i)
		}
		if seen[r.Case] {
			return fmt.Errorf("bench: duplicate case %q", r.Case)
		}
		seen[r.Case] = true
		if r.Iterations < 1 || r.NsPerOp <= 0 || r.OpsPerSec <= 0 || r.BytesPerOp < 0 || r.AllocsPerOp < 0 {
			return fmt.Errorf("bench: case %q has an impossible measurement: %+v", r.Case, r)
		}
	}
	if wantCases != nil && !slices.EqualFunc(f.Results, wantCases, func(r Result, c string) bool { return r.Case == c }) {
		return fmt.Errorf("bench: the %d results are not the %d cases the current suite defines, in order", len(f.Results), len(wantCases))
	}
	return nil
}

// Suite is one benchmark suite: its cases, the settings its committed
// baseline is recorded at, and the limits every run of it must keep.
type Suite struct {
	Name  string
	Cases func(seed uint64) ([]Case, error)
	// GOMAXPROCS and Benchtime are what Run measures at; Check rejects a
	// file recorded at another GOMAXPROCS, since the two would not compare.
	GOMAXPROCS int
	Benchtime  string
	Limits     []Limit
}

// Suites is the registry, keyed by the name that appears in the suite
// field and the BENCH_<name>.json filename.
func Suites() map[string]Suite {
	m := map[string]Suite{}
	for _, s := range []Suite{
		{Name: "daemon", Cases: Daemon, GOMAXPROCS: 1, Benchtime: "10x", Limits: daemonLimits()},
		{Name: "est", Cases: Est, GOMAXPROCS: 1, Benchtime: "10x", Limits: estLimits()},
		{Name: "planner", Cases: Planner, GOMAXPROCS: 2, Benchtime: "3x", Limits: plannerLimits()},
		// One P: with two, the collector of online25 — the one batch that
		// keeps it busy — runs beside it on an idle core and competes for a
		// busy one, so smoke runs read online25/mc25 at 1.5× on an idle
		// 2-core host and 2.2–2.3× beside another test package; with one,
		// 1.24–1.47× either way (1.25–1.78× at full length).
		{Name: "sim", Cases: Sim, GOMAXPROCS: 1, Benchtime: "100x", Limits: simLimits()},
	} {
		m[s.Name] = s
	}
	return m
}

// SuiteNames lists the registered suites in deterministic order.
func SuiteNames() []string {
	names := make([]string, 0, len(Suites()))
	for n := range Suites() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run measures the suite at its own GOMAXPROCS, restored afterwards, and
// at its own benchtime unless benchtime overrides it.
func (s Suite) Run(seed uint64, benchtime string, progress io.Writer) (*File, error) {
	if benchtime == "" {
		benchtime = s.Benchtime
	}
	if err := SetBenchtime(benchtime); err != nil {
		return nil, fmt.Errorf("bad benchtime %q: %w", benchtime, err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(s.GOMAXPROCS))
	// Built after GOMAXPROCS is set: the daemon sizes its workers by it.
	cases, err := s.Cases(seed)
	if err != nil {
		return nil, fmt.Errorf("bench: building suite %s: %w", s.Name, err)
	}
	fmt.Fprintf(progress, "suite %s: %d cases, GOMAXPROCS %d, benchtime %s\n", s.Name, len(cases), s.GOMAXPROCS, benchtime)
	return RunSuite(s.Name, seed, cases, s.timed(), progress)
}

// timed lists the cases the suite's time limits compare.
func (s Suite) timed() []string {
	var cases []string
	for _, l := range s.Limits {
		if l.Metric == NsPerOp {
			cases = append(append(cases, l.X...), l.Y...)
		}
	}
	slices.Sort(cases)
	return slices.Compact(cases)
}

// CaseNames extracts the names of a case list, in order.
func CaseNames(cases []Case) []string {
	out := make([]string, len(cases))
	for i, c := range cases {
		out[i] = c.Name
	}
	return out
}

func validateCaseList(cases []Case) error {
	if len(cases) == 0 {
		return fmt.Errorf("no cases")
	}
	seen := map[string]bool{}
	for _, c := range cases {
		if c.Name == "" || c.Bench == nil {
			return fmt.Errorf("case with empty name or nil bench")
		}
		if seen[c.Name] {
			return fmt.Errorf("duplicate case %q", c.Name)
		}
		seen[c.Name] = true
	}
	if !sort.StringsAreSorted(CaseNames(cases)) {
		return fmt.Errorf("case names must be sorted for stable diffs")
	}
	return nil
}
