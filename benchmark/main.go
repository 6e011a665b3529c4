// Command benchmark is the repository's benchmark: seven workloads
// over the real budgetwfd daemon and the in-process experiment, planner
// and pool layers, each measured end to end with tracing off and then
// replayed under the benchmark's own span recorder for per-layer
// numbers. BENCHMARK.json at the repository root declares the workload
// and metric names; README.md explains why each exists.
//
//	bash benchmark/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
//	bash benchmark/run.sh -seed 1                  # all workloads, untraced then traced
//	bash benchmark/run.sh -compare dirA dirB       # verdict per (workload, metric)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// clients is the closed-loop client count of the daemon workloads:
// callers of /v1/schedule each wait for their plan, and two of them
// keep both cores of the reference machine busy without making the
// load generator the bottleneck.
const clients = 2

// setupReps is how many times a run sets its workload up; setup_s is
// the median, so one slow process start does not decide it.
const setupReps = 3

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workloadName := fs.String("workload", "", "run one workload and print its result as the last line (default: all, untraced then traced)")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 0, "length of the measured phase (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
	compare := fs.Bool("compare", false, "compare two directories of result.json files: -compare <base> <new>")
	summarize := fs.String("summarize", "", "print median and quartiles of every end-to-end metric over a directory of result.json files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		return fail(err)
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two directories"))
		}
		return compareDirs(spec, fs.Arg(0), fs.Arg(1), os.Stdout)
	case *summarize != "":
		return summarizeDir(spec, *summarize, os.Stdout)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}

	e, err := newEnv(root, *seed)
	if err != nil {
		return fail(err)
	}
	// Children die with the benchmark: on a signal, and on every return.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		e.procs.stopAll()
		os.Exit(130)
	}()
	defer e.procs.stopAll()

	if *workloadName != "" {
		res, err := runWorkload(e, spec, *workloadName, *seconds, *trace == 1, false)
		if err != nil {
			return fail(err)
		}
		res.print(os.Stdout)
		line, err := json.Marshal(res.driverLine())
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
		return 0
	}
	return runAll(e, spec, *seconds)
}

// warn reports something a reader of the numbers must know but that
// does not make the run fail.
func warn(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: warning: "+format+"\n", args...)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 1
}

// env is what every workload of one run shares.
type env struct {
	root   string // repository root
	out    string // benchmark/out: logs, journals, traces, result.json
	bin    string // the built budgetwfd
	buildS float64
	seed   uint64
	client *http.Client
	procs  *procs
}

func newEnv(root string, seed uint64) (*env, error) {
	e := &env{
		root:  root,
		out:   filepath.Join(root, "benchmark", "out"),
		bin:   filepath.Join(root, ".bench_build", "bin", "budgetwfd"),
		seed:  seed,
		procs: newProcs(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 2 * clients,
		}},
	}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		return nil, err
	}
	// The daemon is built from the checkout's source on every run; after
	// the first, the Go build cache makes this a fraction of a second.
	start := time.Now()
	build := exec.Command("go", "build", "-o", e.bin, "./cmd/budgetwfd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build ./cmd/budgetwfd: %v\n%s", err, out)
	}
	e.buildS = time.Since(start).Seconds()
	return e, nil
}

// workload is one benchmark workload. A value is used for one set-up:
// setup, then run and possibly traced, then close.
type workload interface {
	// setup generates the inputs from the seed, computes the reference
	// outputs ops are verified against, starts daemons and warms caches.
	setup(e *env) error
	// run performs ops in a closed loop for d (at least one op), timing
	// and verifying each.
	run(e *env, d time.Duration) (*phase, error)
	// traced replays a fixed sample under the span recorder and returns
	// the per-layer metrics it yields; untraced is the phase just run
	// with tracing off.
	traced(e *env, rec *recorder, untraced *phase) (map[string]float64, error)
	// digest is the SHA-256 of the reference outputs, wall-clock fields
	// zeroed: equal seeds must give equal digests on every commit.
	digest() string
	close()
}

// phase is what one measured phase yields.
type phase struct {
	wall      time.Duration
	latMs     []float64 // latency of every verified op
	attempted int
	failed    int     // errored, refused, timed out, or output not as the reference
	mem       memSnap // allocation and GC delta over the phase, in the process that did the work
	// layer holds per-layer metrics read from counters the program
	// already exposes, over this phase.
	layer map[string]float64
}

func (p *phase) ok() int { return p.attempted - p.failed }

func newWorkload(name string, small bool) (workload, error) {
	sz := fullSizes
	if small {
		sz = smallSizes
	}
	switch name {
	case "serve-hot":
		return &serveWorkload{sz: sz, hot: true}, nil
	case "serve-miss":
		return &serveWorkload{sz: sz}, nil
	case "figs-list":
		return newSweepWorkload(sz, false), nil
	case "figs-refine":
		return newSweepWorkload(sz, true), nil
	case "plan-scale":
		return &planWorkload{sz: sz}, nil
	case "jobs-cluster":
		return &jobsWorkload{sz: sz}, nil
	case "pool-tenants":
		return &poolWorkload{sz: sz}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload, traced or not.
type result struct {
	Workload  string                 `json:"workload"`
	Traced    bool                   `json:"traced"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Samples   int                    `json:"samples"` // op latencies behind op_p50_ms
	Digest    string                 `json:"output_digest"`
	Metrics   map[string]metricValue `json:"metrics"`
	order     []string
}

// driverLine is the one-line result the acceptance driver reads.
func (r *result) driverLine() map[string]any {
	return map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": r.Metrics,
	}
}

func (r *result) print(w *os.File) {
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "%-13s %-44s %14.6g %-6s n=%d\n", r.Workload, name, m.Value, m.Unit, r.Samples)
	}
	fmt.Fprintf(w, "%-13s attempted=%d failed=%d correct=%v output_digest=%s\n",
		r.Workload, r.Attempted, r.Failed, r.Correct, r.Digest)
}

// runWorkload is one run: with trace off, setupReps set-ups and one
// measured phase give the end-to-end metrics; with trace on, one
// set-up, a measured phase of half the length (the counters and the
// untraced median the traced sample is compared with) and the traced
// replay give the per-layer metrics.
func runWorkload(e *env, spec *benchSpec, name string, seconds float64, trace, small bool) (*result, error) {
	var w workload
	var setups []float64
	reps := setupReps
	if trace {
		reps = 1
	}
	for i := 0; i < reps; i++ {
		if w != nil {
			w.close()
		}
		var err error
		if w, err = newWorkload(name, small); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := w.setup(e); err != nil {
			w.close()
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()

	if trace {
		seconds /= 2
	}
	ph, err := w.run(e, time.Duration(seconds*float64(time.Second)))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if ph.ok() == 0 {
		return nil, fmt.Errorf("%s: no op succeeded (%d attempted)", name, ph.attempted)
	}
	res := &result{
		Workload: name, Traced: trace, Correct: ph.failed == 0,
		Attempted: ph.attempted, Failed: ph.failed, Samples: len(ph.latMs),
		Digest: w.digest(), Metrics: make(map[string]metricValue),
	}

	values := make(map[string]float64)
	declared := spec.EndToEnd
	if trace {
		declared = spec.PerLayer
		rec := newRecorder()
		layers, err := w.traced(e, rec, ph)
		if err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", name, err)
		}
		for k, v := range ph.layer {
			values[k] = v
		}
		for k, v := range layers {
			values[k] = v
		}
		values["bench.build_s"] = e.buildS
		if err := rec.writeChrome(filepath.Join(e.out, "trace-"+name+".json")); err != nil {
			return nil, err
		}
	} else {
		ops := float64(ph.ok())
		values["setup_s"] = median(setups)
		values["ops_per_s"] = ops / ph.wall.Seconds()
		values["op_p50_ms"] = median(ph.latMs)
		values["alloc_kb_per_op"] = float64(ph.mem.TotalAlloc) / 1024 / ops
		values["mallocs_per_op"] = float64(ph.mem.Mallocs) / ops
	}
	// Every declared metric is reported on every workload; a per-layer
	// metric of a layer the workload does not cross reads 0. A computed
	// name BENCHMARK.json does not declare is a bug here.
	for _, m := range declared {
		v, ok := values[m.Name]
		if !ok && !trace {
			return nil, fmt.Errorf("%s: end-to-end metric %s not measured", name, m.Name)
		}
		delete(values, m.Name)
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		res.order = append(res.order, m.Name)
	}
	for k := range values {
		return nil, fmt.Errorf("%s: metric %s is not declared in BENCHMARK.json", name, k)
	}
	return res, nil
}

// runInfo is what result.json records about the run as a whole.
type runInfo struct {
	Seed      uint64  `json:"seed"`
	Seconds   float64 `json:"seconds"`
	NProc     int     `json:"nproc"`
	Clients   int     `json:"clients"`
	GoVersion string  `json:"go_version"`
	Commit    string  `json:"commit"`
	ElapsedS  float64 `json:"elapsed_s,omitempty"`
}

// resultFile is benchmark/out/result.json.
type resultFile struct {
	Run     runInfo   `json:"run"`
	Results []*result `json:"results"`
}

// runAll runs every workload of BENCHMARK.json in order, untraced then
// traced, prints every metric and writes result.json. The exit code is
// non-zero if any op failed.
func runAll(e *env, spec *benchSpec, seconds float64) int {
	start := time.Now()
	file := resultFile{Run: runInfo{
		Seed: e.seed, Seconds: seconds, NProc: runtime.NumCPU(), Clients: clients,
		GoVersion: runtime.Version(), Commit: commit(e.root),
	}}
	fmt.Printf("seed=%d seconds=%g nproc=%d clients=%d go=%s commit=%s build_s=%.3f\n",
		e.seed, seconds, file.Run.NProc, clients, file.Run.GoVersion, file.Run.Commit, e.buildS)
	code := 0
	for _, trace := range []bool{false, true} {
		for _, ws := range spec.Workloads {
			res, err := runWorkload(e, spec, ws.Name, seconds, trace, false)
			if err != nil {
				return fail(err)
			}
			res.print(os.Stdout)
			if !res.Correct {
				code = 1
			}
			file.Results = append(file.Results, res)
		}
	}
	file.Run.ElapsedS = time.Since(start).Seconds()
	fmt.Printf("elapsed_s=%.1f\n", file.Run.ElapsedS)
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return fail(err)
	}
	if err := os.WriteFile(filepath.Join(e.out, "result.json"), append(b, '\n'), 0o644); err != nil {
		return fail(err)
	}
	return code
}

// commit names the checkout's commit, "unknown" outside a git
// repository (the acceptance driver's checkouts are not one).
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil || len(out) == 0 {
		return "unknown"
	}
	return string(out[:len(out)-1])
}

// readMem snapshots this process's allocation counters.
func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{TotalAlloc: m.TotalAlloc, Mallocs: m.Mallocs, NumGC: m.NumGC, PauseTotalNs: m.PauseTotalNs}
}
