package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

func cheapCases() []Case {
	mk := func(name string) Case {
		return Case{Name: name, Bench: func(b *testing.B) {
			x := 0
			for i := 0; i < b.N; i++ {
				x += i
			}
			_ = x
		}}
	}
	return []Case{mk("a/one"), mk("b/two"), mk("c/three")}
}

func TestRunSuiteRoundTrip(t *testing.T) {
	if err := SetBenchtime("1x"); err != nil {
		t.Fatal(err)
	}
	f, err := RunSuite("unit", 7, cheapCases(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate("unit", []string{"a/one", "b/two", "c/three"}); err != nil {
		t.Fatal(err)
	}
	if f.Seed != 7 || f.GoVersion == "" || f.GOMAXPROCS < 1 {
		t.Fatalf("bad header: %+v", f)
	}
	for _, r := range f.Results {
		if r.NsPerOp <= 0 || r.OpsPerSec <= 0 || r.Iterations < 1 {
			t.Fatalf("bad result: %+v", r)
		}
	}

	path := filepath.Join(t.TempDir(), "BENCH_unit.json")
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	g, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate("unit", []string{"a/one", "b/two", "c/three"}); err != nil {
		t.Fatal(err)
	}
	if len(g.Results) != len(f.Results) || g.Results[0] != f.Results[0] {
		t.Fatalf("round trip mutated results: %+v vs %+v", g.Results, f.Results)
	}
}

func TestRunSuiteRejectsBadCaseLists(t *testing.T) {
	if err := SetBenchtime("1x"); err != nil {
		t.Fatal(err)
	}
	noop := func(b *testing.B) {}
	for name, cases := range map[string][]Case{
		"empty":     {},
		"duplicate": {{Name: "x", Bench: noop}, {Name: "x", Bench: noop}},
		"unnamed":   {{Name: "", Bench: noop}},
		"nil bench": {{Name: "x"}},
		"unsorted":  {{Name: "b", Bench: noop}, {Name: "a", Bench: noop}},
	} {
		if _, err := RunSuite("unit", 0, cases, nil); err == nil {
			t.Errorf("%s case list accepted", name)
		}
	}
}

func TestValidateRejectsCorruptFiles(t *testing.T) {
	good := func() *File {
		return &File{
			SchemaVersion: SchemaVersion,
			Suite:         "unit",
			GoVersion:     "go1.0",
			GOMAXPROCS:    1,
			Results: []Result{
				{Case: "a", Iterations: 1, NsPerOp: 10, OpsPerSec: 1e8},
			},
		}
	}
	if err := good().Validate("unit", []string{"a"}); err != nil {
		t.Fatalf("good file rejected: %v", err)
	}
	for name, tweak := range map[string]func(*File){
		"wrong schema":     func(f *File) { f.SchemaVersion = SchemaVersion + 1 },
		"wrong suite":      func(f *File) { f.Suite = "other" },
		"no go version":    func(f *File) { f.GoVersion = "" },
		"bad gomaxprocs":   func(f *File) { f.GOMAXPROCS = 0 },
		"empty case":       func(f *File) { f.Results[0].Case = "" },
		"zero iterations":  func(f *File) { f.Results[0].Iterations = 0 },
		"zero ns":          func(f *File) { f.Results[0].NsPerOp = 0 },
		"negative allocs":  func(f *File) { f.Results[0].AllocsPerOp = -1 },
		"zero throughput":  func(f *File) { f.Results[0].OpsPerSec = 0 },
		"duplicate case":   func(f *File) { f.Results = append(f.Results, f.Results[0]) },
		"case list drift":  func(f *File) { f.Results[0].Case = "b" },
		"case count drift": func(f *File) { f.Results = nil },
	} {
		f := good()
		tweak(f)
		if err := f.Validate("unit", []string{"a"}); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestReadFileRejectsUnknownFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	if err := os.WriteFile(path, []byte(`{"schema_version":1,"suite":"x","bogus":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Error("unknown field accepted")
	}
}

// TestSuiteDefinitionsAreStable: every registered suite builds a
// sorted, duplicate-free case list whose names do not depend on the
// seed — the property that makes committed baselines diff cleanly
// PR over PR.
func TestSuiteDefinitionsAreStable(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every suite's instances and anchors")
	}
	for _, name := range SuiteNames() {
		ctor := Suites()[name]
		a, err := ctor(1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(a) == 0 {
			t.Fatalf("%s: no cases", name)
		}
		names := CaseNames(a)
		if !sort.StringsAreSorted(names) {
			t.Errorf("%s: case names not sorted: %v", name, names)
		}
		b, err := ctor(2)
		if err != nil {
			t.Fatalf("%s seed 2: %v", name, err)
		}
		if got, want := strings.Join(CaseNames(b), ","), strings.Join(names, ","); got != want {
			t.Errorf("%s: case list depends on seed:\n  seed1: %s\n  seed2: %s", name, want, got)
		}
	}
}

// TestPlannerSuiteCoversTheGrid pins the advertised coverage: seven
// algorithms, three families, sizes {50, 300, 1000} with the three
// refinement algorithms capped at n=300.
func TestPlannerSuiteCoversTheGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("builds planner instances and anchors")
	}
	cases, err := Planner(1)
	if err != nil {
		t.Fatal(err)
	}
	if want := 4*3*3 + 3*3*2; len(cases) != want {
		t.Fatalf("%d cases, want %d", len(cases), want)
	}
	refined := 0
	for _, c := range cases {
		if strings.HasPrefix(c.Name, "heftbudg+") || strings.HasPrefix(c.Name, "cg+") {
			refined++
			if strings.HasSuffix(c.Name, "/n1000") {
				t.Errorf("refinement case above the cap: %s", c.Name)
			}
		}
	}
	if refined != 3*3*2 {
		t.Errorf("%d refinement cases, want %d", refined, 3*3*2)
	}
}

// TestGatePlanner: the gate passes a run in which HEFTBUDG+ allocates
// like the list planner it starts from and takes a bounded multiple of
// its time, MIN-MINBUDG stays within a small factor of HEFTBUDG in time
// and in bytes, and the list planners allocate per plan; it fails one
// in which a refinement plan allocates per candidate again,
// re-simulates every candidate in full again, MIN-MINBUDG re-scans like
// it did before its picks were cached or keeps its candidate matrix
// again, or a list planner allocates per VM again — on whichever
// family — and rejects a run that lacks the cases it reads.
func TestGatePlanner(t *testing.T) {
	run := func(refinedAllocs map[string]int64, minMinNs map[string]float64, refinedNs ...float64) *File {
		f := &File{SchemaVersion: SchemaVersion, Suite: "planner"}
		for i, typ := range plannerFamilies {
			ns := 1.2e6 // 20× HEFTBUDG
			if i < len(refinedNs) {
				ns = refinedNs[i]
			}
			f.Results = append(f.Results,
				Result{Case: fmt.Sprintf("heftbudg/%s/n0050", typ), Iterations: 10, NsPerOp: 60e3, AllocsPerOp: 240, OpsPerSec: 1},
				Result{Case: fmt.Sprintf("heftbudg+/%s/n0050", typ), Iterations: 10, NsPerOp: ns, AllocsPerOp: refinedAllocs[string(typ)], OpsPerSec: 1},
				Result{Case: fmt.Sprintf("heftbudg/%s/n1000", typ), Iterations: 3, NsPerOp: 10e6, BytesPerOp: 290_000, AllocsPerOp: 280, OpsPerSec: 1},
				Result{Case: fmt.Sprintf("minminbudg/%s/n1000", typ), Iterations: 3, NsPerOp: minMinNs[string(typ)], BytesPerOp: 470_000, AllocsPerOp: 9000, OpsPerSec: 1},
				Result{Case: fmt.Sprintf("cg/%s/n0050", typ), Iterations: 10, NsPerOp: 60e3, AllocsPerOp: 250, OpsPerSec: 1},
				Result{Case: fmt.Sprintf("cg/%s/n1000", typ), Iterations: 3, NsPerOp: 10e6, AllocsPerOp: 290, OpsPerSec: 1},
				Result{Case: fmt.Sprintf("bdt/%s/n0050", typ), Iterations: 10, NsPerOp: 60e3, AllocsPerOp: 300, OpsPerSec: 1},
				Result{Case: fmt.Sprintf("bdt/%s/n1000", typ), Iterations: 3, NsPerOp: 10e6, AllocsPerOp: 600, OpsPerSec: 1})
		}
		return f
	}
	// withAllocs and withBytes set one case's allocations in a run.
	withAllocs := func(f *File, name string, allocs int64) *File {
		for i := range f.Results {
			if f.Results[i].Case == name {
				f.Results[i].AllocsPerOp = allocs
			}
		}
		return f
	}
	withBytes := func(f *File, name string, bytes int64) *File {
		for i := range f.Results {
			if f.Results[i].Case == name {
				f.Results[i].BytesPerOp = bytes
			}
		}
		return f
	}
	healthyAllocs := map[string]int64{"cybershake": 410, "ligo": 520, "montage": 700}
	healthyNs := map[string]float64{"cybershake": 20e6, "ligo": 66e6, "montage": 60e6}
	report, err := GatePlanner(run(healthyAllocs, healthyNs))
	if err != nil {
		t.Errorf("healthy run rejected: %v", err)
	}
	if len(report) != 3*len(plannerFamilies) {
		t.Errorf("report has %d lines, want three per family: %q", len(report), report)
	}
	// HEFTBUDG appending per VM again: the committed suite read 150–189
	// at n = 50 and 2717–3051 at n = 1000 before the planners allocated
	// per plan.
	_, err = GatePlanner(withAllocs(run(healthyAllocs, healthyNs), "heftbudg/ligo/n1000", 3051))
	if err == nil || !strings.Contains(err.Error(), "heftbudg/ligo/n1000 allocates 3051 objects per op, more than 2× heftbudg/ligo/n0050's 240") {
		t.Errorf("per-VM growth not reported: %v", err)
	}
	if strings.Contains(err.Error(), "cybershake") {
		t.Errorf("healthy family reported: %v", err)
	}
	if _, err := GatePlanner(withAllocs(run(healthyAllocs, healthyNs), "bdt/montage/n1000", 601)); err == nil {
		t.Error("2.003x BDT's allocations at n=50 accepted")
	}
	// One clone and one engine per candidate: what the suite measured
	// before the in-place evaluator.
	_, err = GatePlanner(run(map[string]int64{"cybershake": 410, "ligo": 520, "montage": 315_000}, healthyNs))
	if err == nil || !strings.Contains(err.Error(), "heftbudg+/montage/n0050 allocates 315000") {
		t.Errorf("per-candidate allocation not reported: %v", err)
	}
	if strings.Contains(err.Error(), "ligo") {
		t.Errorf("healthy family reported: %v", err)
	}
	if _, err := GatePlanner(run(map[string]int64{"cybershake": 961, "ligo": 520, "montage": 700}, healthyNs)); err == nil {
		t.Error("4.004x the list planner's allocations accepted")
	}
	if _, err := GatePlanner(run(map[string]int64{"cybershake": 960, "ligo": 520, "montage": 700}, healthyNs)); err != nil {
		t.Errorf("exactly 4x rejected: %v", err)
	}
	// Every ready task's column re-scanned every round: 22–42× HEFTBUDG.
	_, err = GatePlanner(run(healthyAllocs, map[string]float64{"cybershake": 420e6, "ligo": 66e6, "montage": 60e6}))
	if err == nil || !strings.Contains(err.Error(), "minminbudg/cybershake/n1000 takes 420000000 ns") {
		t.Errorf("slow MIN-MINBUDG not reported: %v", err)
	}
	if strings.Contains(err.Error(), "montage") {
		t.Errorf("healthy family reported: %v", err)
	}
	// A booked pick forgotten instead of kept as a bound: LIGO read
	// 8.98× in the baseline before.
	if _, err := GatePlanner(run(healthyAllocs, map[string]float64{"cybershake": 20e6, "ligo": 89.8e6, "montage": 60e6})); err == nil {
		t.Error("8.98x HEFTBUDG's time accepted")
	}
	if _, err := GatePlanner(run(healthyAllocs, map[string]float64{"cybershake": 20e6, "ligo": 85e6, "montage": 60e6})); err != nil {
		t.Errorf("exactly 8.5x rejected: %v", err)
	}
	// Every ready task's candidate on every VM, the matrix MIN-MINBUDG
	// kept before: 37.5 MB at n = 1000.
	_, err = GatePlanner(withBytes(run(healthyAllocs, healthyNs), "minminbudg/cybershake/n1000", 37_489_872))
	if err == nil || !strings.Contains(err.Error(), "minminbudg/cybershake/n1000 allocates 37489872 bytes per op, more than 4× heftbudg/cybershake/n1000's 290000") {
		t.Errorf("candidate matrix not reported: %v", err)
	}
	if strings.Contains(err.Error(), "ligo") {
		t.Errorf("healthy family reported: %v", err)
	}
	if _, err := GatePlanner(withBytes(run(healthyAllocs, healthyNs), "minminbudg/montage/n1000", 1_160_001)); err == nil {
		t.Error("4.000003x HEFTBUDG's bytes accepted")
	}
	if _, err := GatePlanner(withBytes(run(healthyAllocs, healthyNs), "minminbudg/montage/n1000", 1_160_000)); err != nil {
		t.Errorf("exactly 4x the bytes rejected: %v", err)
	}
	// Every candidate re-simulated in full: 31–78× HEFTBUDG at n = 50.
	_, err = GatePlanner(run(healthyAllocs, healthyNs, 1.2e6, 4.68e6))
	if err == nil || !strings.Contains(err.Error(), "heftbudg+/ligo/n0050 takes 4680000 ns") {
		t.Errorf("slow refinement not reported: %v", err)
	}
	if strings.Contains(err.Error(), "cybershake") {
		t.Errorf("healthy family reported: %v", err)
	}
	if _, err := GatePlanner(run(healthyAllocs, healthyNs, 2.4006e6)); err == nil {
		t.Error("40.01x HEFTBUDG's time accepted")
	}
	if _, err := GatePlanner(run(healthyAllocs, healthyNs, 2.4e6)); err != nil {
		t.Errorf("exactly 40x rejected: %v", err)
	}
	for _, drop := range []string{"heftbudg+/montage/n0050", "minminbudg/montage/n1000", "cg/ligo/n1000"} {
		missing := run(healthyAllocs, healthyNs)
		kept := missing.Results[:0]
		for _, r := range missing.Results {
			if r.Case != drop {
				kept = append(kept, r)
			}
		}
		missing.Results = kept
		if _, err := GatePlanner(missing); err == nil || !strings.Contains(err.Error(), drop+" case missing") {
			t.Errorf("missing %s not reported: %v", drop, err)
		}
	}
}

// TestGateDaemon: the gate passes a run in which a warm hit skips the
// parse and is far cheaper than a content-key hit and the workflow
// decodes in a handful of allocations, and names the relation a run
// breaks: warm allocations creeping back to a content-key hit's
// (deterministic), both hits growing alike past maxWarmAllocs, warm
// time creeping back towards a content-key hit's, or the decoder
// allocating per task again. The healthy run's figures are those of
// the committed baseline, rounded; its fresh plan allocates less than
// its warm hit, which is healthy since the planners allocate per plan.
func TestGateDaemon(t *testing.T) {
	run := func(warmAllocs int64, warmNs float64) *File {
		res := func(name string, ns float64, allocs int64) Result {
			return Result{Case: name, Iterations: 10, NsPerOp: ns, AllocsPerOp: allocs, OpsPerSec: 1e9 / ns}
		}
		return &File{SchemaVersion: SchemaVersion, Suite: "daemon", Results: []Result{
			res("plan-fresh/heftbudg/montage/n0050", 80_000, 32),
			res("schedule-cold/montage/n0050", 400_000, 231),
			res("schedule-warm-canonical/montage/n0050", 240_000, 139),
			res("schedule-warm/montage/n0050", warmNs, warmAllocs),
			res("wf-content-key/montage/n0050", 7_000, 1),
			res("wf-decode/montage/n0050", 100_000, 10),
		}}
	}
	report, err := GateDaemon(run(117, 95_000))
	if err != nil {
		t.Fatalf("healthy run failed the gate: %v", err)
	}
	if joined := strings.Join(report, "\n"); !strings.Contains(joined, "139-117 = 22") || !strings.Contains(joined, "fresh heftbudg plan") {
		t.Errorf("report lacks the relations with their bases:\n%s", joined)
	}
	// A warm hit that parses again allocates what a content-key hit does.
	if _, err := GateDaemon(run(139, 95_000)); err == nil || !strings.Contains(err.Error(), "schedule-warm allocates") {
		t.Errorf("warm allocations at a content-key hit's passed the gate: %v", err)
	}
	// Growth both hits share — writing the hit, the round trip — keeps
	// their difference and is caught by the warm hit's own ceiling.
	shared := run(117+60, 95_000)
	for i, r := range shared.Results {
		if r.Case == "schedule-warm-canonical/montage/n0050" {
			shared.Results[i].AllocsPerOp += 60
		}
	}
	if _, err := GateDaemon(shared); err == nil || !strings.Contains(err.Error(), "schedule-warm allocates 177 objects per op, more than 150") {
		t.Errorf("warm and content-key hits grown alike past maxWarmAllocs passed the gate: %v", err)
	}
	// A warm hit that parses again takes 0.8–1.2 of a content-key hit's
	// time, yet only half a cold request's.
	if _, err := GateDaemon(run(117, 200_000)); err == nil || !strings.Contains(err.Error(), "ns per op") {
		t.Errorf("warm time at 83%% of a content-key hit's passed the gate: %v", err)
	}
	// The reflective decoder's count at n = 50.
	reflective := run(119, 70_000)
	reflective.Results[len(reflective.Results)-1].AllocsPerOp = 271
	if _, err := GateDaemon(reflective); err == nil || !strings.Contains(err.Error(), "wf-decode allocates") {
		t.Errorf("a per-task decoder passed the gate: %v", err)
	}
	if _, err := GateDaemon(&File{Suite: "daemon"}); err == nil {
		t.Error("a run without the gated cases passed the gate")
	}
}

// TestGateSim: the gate passes a run in which scoring is far cheaper
// than the event engine and neither allocates per execution and online
// executions stay within their time and allocation bounds, names each
// relation a run breaks, and rejects a run that lacks a case.
func TestGateSim(t *testing.T) {
	online := Result{Case: "online25/montage/n0300/sigma0.50", Iterations: 10, NsPerOp: 5e6, AllocsPerOp: 25 * 45, OpsPerSec: 1}
	run := func(mcAllocs, scoreAllocs int64, scoreNs float64) *File {
		f := &File{SchemaVersion: SchemaVersion, Suite: "sim"}
		for _, sigma := range simSigmas {
			f.Results = append(f.Results,
				Result{Case: fmt.Sprintf("mc25/montage/n0300/sigma%.2f", sigma), Iterations: 10, NsPerOp: 3e6, AllocsPerOp: mcAllocs, OpsPerSec: 1},
				Result{Case: fmt.Sprintf("score25/montage/n0300/sigma%.2f", sigma), Iterations: 10, NsPerOp: scoreNs, AllocsPerOp: scoreAllocs, OpsPerSec: 1})
		}
		f.Results = append(f.Results, online)
		return f
	}
	report, err := GateSim(run(26, 25, 250e3))
	if err != nil {
		t.Errorf("healthy run rejected: %v", err)
	}
	if len(report) != len(simSigmas)+1 || !strings.Contains(report[0], "250000/3000000 = 0.083") ||
		!strings.Contains(report[len(simSigmas)], "5000000/3000000 = 1.667 (limit 2), 45 allocations per execution") {
		t.Errorf("report lacks one ratio with its base per σ and the online relation: %q", report)
	}
	// The parent's executor: ≈ 5× the engine and ≈ 2 145 allocations per
	// execution.
	online.NsPerOp, online.AllocsPerOp = 15e6, 25*2145
	if _, err := GateSim(run(26, 25, 250e3)); err == nil || !strings.Contains(err.Error(), "more than 2× mc25") ||
		!strings.Contains(err.Error(), "more than 400 per execution") {
		t.Errorf("an online executor 5× slower and allocating per event passed the gate: %v", err)
	}
	online.NsPerOp, online.AllocsPerOp = 6e6, 25*400
	if _, err := GateSim(run(26, 25, 250e3)); err != nil {
		t.Errorf("online exactly at both limits rejected: %v", err)
	}
	// One allocation per scored execution on top of the split stream.
	if _, err := GateSim(run(26, 50, 250e3)); err == nil || !strings.Contains(err.Error(), "score25/montage/n0300/sigma0.00 allocates 50") {
		t.Errorf("scoring that allocates per call passed the gate: %v", err)
	}
	if _, err := GateSim(run(33, 25, 250e3)); err == nil || !strings.Contains(err.Error(), "mc25/montage/n0300/sigma0.00 allocates 33") {
		t.Errorf("an engine batch over the ceiling passed the gate: %v", err)
	}
	if _, err := GateSim(run(32, 32, 1.5e6)); err != nil {
		t.Errorf("exactly the ceiling and exactly half the time rejected: %v", err)
	}
	// Scoring no faster than the engine.
	if _, err := GateSim(run(26, 25, 3e6)); err == nil || !strings.Contains(err.Error(), "ns per op") {
		t.Errorf("scoring as slow as the engine passed the gate: %v", err)
	}
	missing := run(26, 25, 250e3)
	missing.Results = missing.Results[:len(missing.Results)-1]
	if _, err := GateSim(missing); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("missing case not reported: %v", err)
	}
}

// TestGateEst: the gate passes a run at the committed baseline's four
// allocations per op and at exactly the ceiling, fails one that
// allocates nine on any σ, and rejects a run that lacks a case.
func TestGateEst(t *testing.T) {
	run := func(allocs map[float64]int64) *File {
		f := &File{SchemaVersion: SchemaVersion, Suite: "est"}
		for _, sigma := range simSigmas {
			f.Results = append(f.Results, Result{Case: fmt.Sprintf("analytic/montage/n0300/sigma%.2f", sigma),
				Iterations: 10, NsPerOp: 60e3, BytesPerOp: 4909, AllocsPerOp: allocs[sigma], OpsPerSec: 1})
		}
		return f
	}
	healthy := map[float64]int64{0: 4, 0.5: 4, 1: 4}
	report, err := GateEst(run(healthy))
	if err != nil {
		t.Errorf("healthy run rejected: %v", err)
	}
	if len(report) != len(simSigmas) || !strings.Contains(report[0], "allocs_per_op 4 (limit 8)") {
		t.Errorf("report lacks one line per σ: %q", report)
	}
	if _, err := GateEst(run(map[float64]int64{0: 8, 0.5: 8, 1: 8})); err != nil {
		t.Errorf("exactly the ceiling rejected: %v", err)
	}
	_, err = GateEst(run(map[float64]int64{0: 4, 0.5: 9, 1: 4}))
	if err == nil || !strings.Contains(err.Error(), "analytic/montage/n0300/sigma0.50 allocates 9") {
		t.Errorf("a 9-allocation op passed the gate: %v", err)
	}
	if strings.Contains(err.Error(), "sigma0.00") {
		t.Errorf("healthy case reported: %v", err)
	}
	missing := run(healthy)
	missing.Results = missing.Results[:len(missing.Results)-1]
	if _, err := GateEst(missing); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("missing case not reported: %v", err)
	}
}
