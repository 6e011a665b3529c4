package bench

import (
	"io"
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
	f, err := RunSuite("unit", 7, cheapCases(), []string{"a/one", "c/three"}, io.Discard)
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
		if _, err := RunSuite("unit", 0, cases, nil, io.Discard); err == nil {
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
		ctor := Suites()[name].Cases
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
