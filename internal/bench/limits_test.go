package bench

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// committed reads the committed baseline of a suite.
func committed(t *testing.T, suite string) *File {
	t.Helper()
	f, err := ReadFile(filepath.Join("..", "..", "BENCH_"+suite+".json"))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// edit sets one reading of a run: times × of's reading of the same
// metric, plus plus (of empty: plus alone).
type edit struct {
	cas         string
	metric      Metric
	of          string
	times, plus float64
}

func (e edit) apply(f *File) {
	v := e.plus
	for _, r := range f.Results {
		if r.Case == e.of {
			v += e.times * e.metric.of(r)
		}
	}
	for i := range f.Results {
		r := &f.Results[i]
		if r.Case != e.cas {
			continue
		}
		switch e.metric {
		case NsPerOp:
			r.NsPerOp = v
		case BytesPerOp:
			r.BytesPerOp = int64(v)
		case AllocsPerOp:
			r.AllocsPerOp = int64(v)
		}
	}
}

func clone(f *File) *File {
	g := *f
	g.Results = append([]Result(nil), f.Results...)
	return &g
}

// failing lists the report lines that end in FAIL.
func failing(report []string) []string {
	var out []string
	for _, line := range report {
		if strings.HasSuffix(line, ": FAIL") {
			out = append(out, line)
		}
	}
	return out
}

// TestGatePlanner, TestGateDaemon, TestGateSim and TestGateEst hold
// each suite's limit table to its rows; see checkLimits.
func TestGatePlanner(t *testing.T) { checkLimits(t, "planner", 11*len(plannerFamilies)) }
func TestGateDaemon(t *testing.T)  { checkLimits(t, "daemon", 4) }
func TestGateSim(t *testing.T)     { checkLimits(t, "sim", 3*len(simSigmas)+2) }
func TestGateEst(t *testing.T)     { checkLimits(t, "est", 3) }

// checkLimits holds a suite's table to its rows, on the committed
// baseline: that passes every row; for every row, a reading of its
// first case exactly at the bound keeps the row ok and the next reading
// past it breaks the row, naming it; a run that lacks a case a row
// reads fails with the case's name; and each regression a limit was
// written against breaks exactly the rows it should.
func checkLimits(t *testing.T, name string, rows int) {
	s := Suites()[name]
	if len(s.Limits) != rows {
		t.Errorf("%s: %d limits, want %d", name, len(s.Limits), rows)
	}
	base := committed(t, name)
	if report, err := s.Check(base, nil); err != nil {
		t.Fatalf("committed %s baseline breaks a limit: %v\n%s", name, err, strings.Join(report, "\n"))
	}
	for i, l := range s.Limits {
		y := 1.0
		if len(l.Y) > 0 {
			y = 0
			for _, c := range l.Y {
				y += l.Metric.of(find(base, c))
			}
		}
		at := l.Max * y
		for _, c := range l.X[1:] {
			at -= l.Metric.of(find(base, c))
		}
		past := at + 1
		if l.Metric == NsPerOp {
			past = math.Nextafter(at, math.Inf(1))
		}
		for _, tc := range []struct {
			v    float64
			want string
		}{{at, ": ok"}, {past, ": FAIL"}} {
			f := clone(base)
			edit{cas: l.X[0], metric: l.Metric, plus: tc.v}.apply(f)
			report, err := s.Check(f, nil)
			if !strings.HasSuffix(report[i], tc.want) {
				t.Errorf("%s row %d at %v: %s, want%s", name, i, tc.v, report[i], tc.want)
			}
			if tc.want == ": FAIL" && (err == nil || !strings.Contains(err.Error(), report[i])) {
				t.Errorf("%s row %d past its bound: error %v does not name it", name, i, err)
			}
		}
		for _, c := range append(append([]string(nil), l.X...), l.Y...) {
			f := clone(base)
			f.Results = drop(f.Results, c)
			if _, err := s.Check(f, nil); err == nil || !strings.Contains(err.Error(), c+" case missing") {
				t.Errorf("%s without %s: %v", name, c, err)
			}
		}
	}

	const (
		warm      = "schedule-warm/montage/n0050"
		canonical = "schedule-warm-canonical/montage/n0050"
		decode    = "wf-decode/montage/n0050"
	)
	mc0, mc05, score0 := simCase("mc", 0), simCase("mc", onlineSigma), simCase("score", 0)
	online := simCase("online", onlineSigma)
	for _, m := range []struct {
		suite, why string
		edits      []edit
		breaks     []string // the rows' first case and metric
	}{
		{"planner", "HEFTBUDG appending per VM again (2 717–3 051 at n = 1000)",
			[]edit{{cas: "heftbudg/ligo/n1000", metric: AllocsPerOp, plus: 3051}},
			[]string{"heftbudg/ligo/n1000 allocs_per_op"}},
		{"planner", "a cloned schedule and a fresh engine per refinement candidate",
			[]edit{{cas: "heftbudg+/montage/n0050", metric: AllocsPerOp, plus: 315_000}},
			[]string{"heftbudg+/montage/n0050 allocs_per_op"}},
		{"planner", "every refinement candidate re-simulated in full (31–78×)",
			[]edit{{cas: "heftbudg+/ligo/n0050", metric: NsPerOp, of: "heftbudg/ligo/n0050", times: 78}},
			[]string{"heftbudg+/ligo/n0050 ns_per_op"}},
		{"planner", "MIN-MIN re-scanning every ready task's column every round (22–42×)",
			[]edit{{cas: "minminbudg/cybershake/n1000", metric: NsPerOp, of: "heftbudg/cybershake/n1000", times: 22}},
			[]string{"minminbudg/cybershake/n1000 ns_per_op"}},
		{"planner", "MIN-MIN running every ready task's round in full (CyberShake read 5.0×)",
			[]edit{{cas: "minmin/cybershake/n1000", metric: NsPerOp, of: "heftbudg/cybershake/n1000", times: 5}},
			[]string{"minmin/cybershake/n1000 ns_per_op"}},
		{"planner", "MIN-MINBUDG faster than HEFTBUDG, against Table III's order",
			[]edit{{cas: "minminbudg/montage/n1000", metric: NsPerOp, of: "heftbudg/montage/n1000", times: 0.9}},
			[]string{"heftbudg/montage/n1000 ns_per_op"}},
		{"planner", "MIN-MIN forgetting a booked pick (LIGO read 8.98×)",
			[]edit{{cas: "minminbudg/ligo/n1000", metric: NsPerOp, of: "heftbudg/ligo/n1000", times: 8.98}},
			[]string{"minminbudg/ligo/n1000 ns_per_op"}},
		{"planner", "MIN-MINBUDG scanning every used VM at the low budget (Montage read 79–80×)",
			[]edit{{cas: "minminbudg/montage/low/n1000", metric: NsPerOp, of: "heftbudg/montage/low/n1000", times: 79}},
			[]string{"minminbudg/montage/low/n1000 ns_per_op"}},
		{"planner", "BDT placing every used VM for every task (LIGO read 5.1×)",
			[]edit{{cas: "bdt/ligo/n1000", metric: NsPerOp, of: "heftbudg/ligo/n1000", times: 5.1}},
			[]string{"bdt/ligo/n1000 ns_per_op"}},
		{"planner", "MIN-MIN's candidate matrix (37.5 MB at n = 1000)",
			[]edit{{cas: "minminbudg/cybershake/n1000", metric: BytesPerOp, plus: 37_489_872}},
			[]string{"minminbudg/cybershake/n1000 bytes_per_op"}},
		{"daemon", "a warm hit that parses again",
			[]edit{{cas: warm, metric: AllocsPerOp, of: canonical, times: 1}},
			[]string{warm + " + "}},
		{"daemon", "growth both hits share, past the warm hit's ceiling",
			[]edit{{cas: warm, metric: AllocsPerOp, of: warm, times: 1, plus: 60}, {cas: canonical, metric: AllocsPerOp, of: canonical, times: 1, plus: 60}},
			[]string{warm + " allocs_per_op"}},
		{"daemon", "a warm hit at 0.83 of a content-key hit's time",
			[]edit{{cas: warm, metric: NsPerOp, of: canonical, times: 0.83}},
			[]string{warm + " ns_per_op"}},
		{"daemon", "encoding/json's reflective decoder (271 at n = 50)",
			[]edit{{cas: decode, metric: AllocsPerOp, plus: 271}},
			[]string{decode + " allocs_per_op", warm + " + "}},
		{"sim", "the online executor before its engine was shared (5×, 2 145 per execution)",
			[]edit{{cas: online, metric: NsPerOp, of: mc05, times: 5}, {cas: online, metric: AllocsPerOp, plus: 25 * 2145}},
			[]string{online + " ns_per_op", online + " allocs_per_op"}},
		{"sim", "scoring that allocates once per call",
			[]edit{{cas: score0, metric: AllocsPerOp, plus: 50}},
			[]string{score0 + " allocs_per_op"}},
		{"sim", "an engine batch one past the ceiling",
			[]edit{{cas: mc0, metric: AllocsPerOp, plus: 33}},
			[]string{mc0 + " allocs_per_op"}},
		{"sim", "scoring as slow as the engine",
			[]edit{{cas: score0, metric: NsPerOp, of: mc0, times: 1}},
			[]string{score0 + " ns_per_op"}},
		{"est", "an estimate that allocates 9 objects",
			[]edit{{cas: estCase(0.5), metric: AllocsPerOp, plus: 9}},
			[]string{estCase(0.5) + " allocs_per_op"}},
	} {
		if m.suite != name {
			continue
		}
		f := clone(base)
		for _, e := range m.edits {
			e.apply(f)
		}
		report, err := s.Check(f, nil)
		got := failing(report)
		if err == nil || len(got) != len(m.breaks) {
			t.Errorf("%s: breaks %q (%v), want %d rows", m.why, got, err, len(m.breaks))
			continue
		}
		for _, want := range m.breaks {
			hit := false
			for _, line := range got {
				hit = hit || strings.HasPrefix(line, want)
			}
			if !hit {
				t.Errorf("%s: breaks %q, not the %s row", m.why, got, want)
			}
		}
	}
}

func find(f *File, c string) Result {
	for _, r := range f.Results {
		if r.Case == c {
			return r
		}
	}
	return Result{}
}

func drop(rs []Result, c string) []Result {
	var out []Result
	for _, r := range rs {
		if r.Case != c {
			out = append(out, r)
		}
	}
	return out
}

// TestCheckRejectsOtherSettings: a committed baseline passes its
// suite's Check, and the same file recorded at another GOMAXPROCS does
// not, since its readings would not compare.
func TestCheckRejectsOtherSettings(t *testing.T) {
	s := Suites()["est"]
	f := committed(t, "est")
	cases := make([]string, len(f.Results))
	for i, r := range f.Results {
		cases[i] = r.Case
	}
	if _, err := s.Check(f, cases); err != nil {
		t.Fatalf("committed est baseline rejected: %v", err)
	}
	f.GOMAXPROCS = s.GOMAXPROCS + 1
	if _, err := s.Check(f, cases); err == nil || !strings.Contains(err.Error(), "gomaxprocs") {
		t.Errorf("a baseline recorded at another GOMAXPROCS passed: %v", err)
	}
}

// allocSlack is how far a case's allocation count at HEAD may stand
// from its committed count, either way: one object for the rounding of
// a per-op mean, and 2 % for counts that move with the run (the faulty
// batch's crash draws, net/http's buffers).
func allocSlack(n int64) int64 { return 1 + n/50 }

// opAllocs measures what one more iteration of c allocates, net of what
// a run allocates once (a runner, a server, buffers grown on first
// use): the difference between a run of 2k iterations and one of k,
// each after testing's warm-up iteration, over k. k spreads a run over
// about 5 ms, so what a pooled case rebuilds after testing's forced GC
// is shared by many iterations.
func opAllocs(t *testing.T, c Case, nsPerOp float64) int64 {
	k := max(1, int(5*time.Millisecond/time.Duration(nsPerOp)))
	run := func(n int) int64 {
		if err := SetBenchtime(fmt.Sprintf("%dx", n)); err != nil {
			t.Fatal(err)
		}
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			c.Bench(b)
		})
		return int64(r.MemAllocs)
	}
	long := run(2 * k)
	return int64(math.Round(float64(long-run(k)) / float64(k)))
}

// TestCommittedAllocs makes the committed allocation counts ceilings:
// every case of every committed baseline runs at HEAD, at its suite's
// GOMAXPROCS, and fails when it allocates more than its committed count
// plus allocSlack — a regression — or less than the count minus it —
// a stale baseline, which the change that moved it regenerates. A case
// outside the band is measured once more before it fails: one run in
// a few dozen reads a slow case a handful of objects off. The n = 1000
// planner cases run only without -short, and a file recorded by
// another Go version is skipped.
func TestCommittedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items, and the planners allocate more under it too (minminbudg/ligo/n1000: 50 against 41)")
	}
	for _, name := range SuiteNames() {
		t.Run(name, func(t *testing.T) {
			s := Suites()[name]
			f := committed(t, name)
			if f.GoVersion != runtime.Version() {
				t.Skipf("counts are the toolchain's: BENCH_%s.json was recorded by %s, this is %s", name, f.GoVersion, runtime.Version())
			}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(s.GOMAXPROCS))
			cases, err := s.Cases(f.Seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range cases {
				if testing.Short() && strings.HasSuffix(c.Name, "/n1000") {
					continue
				}
				want := find(f, c.Name)
				lo, hi := want.AllocsPerOp-allocSlack(want.AllocsPerOp), want.AllocsPerOp+allocSlack(want.AllocsPerOp)
				got := opAllocs(t, c, want.NsPerOp)
				if got < lo || got > hi {
					got = opAllocs(t, c, want.NsPerOp)
				}
				switch {
				case got > hi:
					t.Errorf("%s allocates %d objects per op, more than the committed %d and its slack", c.Name, got, want.AllocsPerOp)
				case got < lo:
					t.Errorf("%s allocates %d objects per op, fewer than the committed %d and its slack: regenerate BENCH_%s.json", c.Name, got, want.AllocsPerOp, name)
				}
			}
		})
	}
}
