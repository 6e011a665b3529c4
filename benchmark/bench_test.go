package main

import (
	"math"
	"regexp"
	"testing"
)

// TestWorkloadsMatchContract runs every workload at the reduced sizes,
// untraced and traced, and checks what it emits against BENCHMARK.json.
func TestWorkloadsMatchContract(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons and runs every workload")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := make(map[string]bool)
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		check(w.Name)
	}
	setup := false
	for _, m := range spec.EndToEnd {
		check(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for _, m := range spec.PerLayer {
		check(m.Name)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}

	e, err := newEnv(root, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer e.procs.stopAll()
	for _, w := range spec.Workloads {
		var digests []string
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(e, spec, w.Name, 0.3, trace, true)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted=%d failed=%d correct=%v", w.Name, trace, res.Attempted, res.Failed, res.Correct)
			}
			declared := spec.EndToEnd
			if trace {
				declared = spec.PerLayer
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s trace=%v: %d metrics emitted, %d declared", w.Name, trace, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				v, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not emitted", w.Name, trace, m.Name)
				case v.Unit != m.Unit:
					t.Errorf("%s: %s in %q, declared in %q", w.Name, m.Name, v.Unit, m.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s is %v", w.Name, m.Name, v.Value)
				case !trace && v.Value <= 0:
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", w.Name, m.Name, v.Value)
				}
			}
			digests = append(digests, res.Digest)
		}
		// Two set-ups at one seed: the reference outputs must not differ.
		if digests[0] != digests[1] || digests[0] == "" {
			t.Errorf("%s: output digests %q and %q at one seed", w.Name, digests[0], digests[1])
		}
	}
}

func TestPercentiles(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for _, c := range []struct {
		xs   []float64
		p    float64
		want float64
		ok   bool // under the ten-samples-beyond rule
	}{
		{hundred, 0.50, 50, true},
		{hundred, 0.90, 90, true},       // ten samples beyond: just enough
		{hundred, 0.95, 95, false},      // five beyond
		{hundred[:19], 0.50, 10, false}, // nine beyond
		{hundred[:21], 0.50, 11, true},
		{[]float64{3}, 0.99, 3, false},
		{nil, 0.5, 0, false},
	} {
		got, ok := tailPercentile(c.xs, c.p)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("tailPercentile(n=%d, %v) = %v, %v; want %v, %v", len(c.xs), c.p, got, ok, c.want, c.ok)
		}
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{4}, 4, 4},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	noisy := []float64{100, 140, 80, 120, 90}
	for _, c := range []struct {
		name      string
		m         metricSpec
		base, cur []float64
		want      string
	}{
		{"within the bound", lower, steady, []float64{104, 105, 103, 104, 106}, verdictSame},
		{"beyond the bound", lower, steady, []float64{112, 113, 111, 112, 114}, verdictWorse},
		{"lower is better", lower, steady, []float64{90, 91, 89, 90, 92}, verdictBetter},
		{"higher is better", higher, steady, []float64{112, 113, 111, 112, 114}, verdictBetter},
		{"higher got lower", higher, steady, []float64{88, 89, 87, 88, 86}, verdictWorse},
		{"gain inside the base's spread", lower, steady, []float64{99.5, 100.5, 98.5, 99.5, 101.5}, verdictSame},
		{"base too noisy for the bound", lower, noisy, []float64{115, 116, 114, 115, 117}, verdictUnresolved},
		{"noisy base, every run better", lower, noisy, []float64{70, 71, 69, 70, 72}, verdictBetter},
		{"single runs", lower, []float64{100}, []float64{120}, verdictWorse},
		{"identical", lower, steady, steady, verdictSame},
	} {
		if got := judge(c.m, c.base, c.cur); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}
