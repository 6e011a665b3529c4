package exp

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"budgetwf/internal/sched"
	"budgetwf/internal/wfgen"
)

// resultsDir is the committed output of paperfigs -all -svg.
const resultsDir = "../../results"

// TestPaperOutputs regenerates every non-timing output of the registry
// at the paper's scale and compares it with the committed results/:
// each CSV cell by cell, outside plantime_mean_s (a wall-clock mean),
// and each SVG byte for byte. It also fails on a committed CSV or SVG
// that no output writes. A deliberate change to an output regenerates
// results/ (make figs) and says why.
func TestPaperOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates every output at the paper's scale")
	}
	written := map[string]bool{}
	var timing []string
	for _, o := range Outputs() {
		if o.Timing {
			timing = append(timing, o.Name+"_")
			continue
		}
		t.Run(o.Name, func(t *testing.T) {
			p, err := o.Run(OutputConfig{})
			if err != nil {
				t.Fatal(err)
			}
			for i, tab := range p.Tables {
				name := o.CSVFile(i, tab)
				written[name] = true
				var got strings.Builder
				if err := tab.WriteCSV(&got); err != nil {
					t.Fatal(err)
				}
				compareCSV(t, name, got.String())
			}
			for _, pan := range p.Panels {
				written[pan.File] = true
				var got strings.Builder
				if err := pan.Chart.RenderSVG(&got); err != nil {
					t.Fatalf("%s: %v", pan.File, err)
				}
				want, err := os.ReadFile(filepath.Join(resultsDir, pan.File))
				if err != nil {
					t.Errorf("%s: %v", pan.File, err)
				} else if got.String() != string(want) {
					t.Errorf("%s differs from the committed file", pan.File)
				}
			}
		})
	}
	if t.Failed() {
		return
	}
	for _, pattern := range []string{"*.csv", "*.svg"} {
		files, err := filepath.Glob(filepath.Join(resultsDir, pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			name := filepath.Base(f)
			if !written[name] && !hasAnyPrefix(name, timing) {
				t.Errorf("results/%s is written by no output", name)
			}
		}
	}
}

// compareCSV checks a regenerated CSV against its committed file cell
// by cell, skipping the plantime_mean_s column.
func compareCSV(t *testing.T, name, got string) {
	t.Helper()
	f, err := os.Open(filepath.Join(resultsDir, name))
	if err != nil {
		t.Error(err)
		return
	}
	defer f.Close()
	want, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	rows, err := csv.NewReader(strings.NewReader(got)).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(rows) != len(want) {
		t.Errorf("%s: %d rows, committed %d", name, len(rows), len(want))
		return
	}
	header := rows[0]
	diffs := 0
	for r := range rows {
		if len(rows[r]) != len(want[r]) {
			t.Errorf("%s row %d: %d cells, committed %d", name, r, len(rows[r]), len(want[r]))
			return
		}
		for c := range rows[r] {
			if header[c] == "plantime_mean_s" || rows[r][c] == want[r][c] {
				continue
			}
			if diffs++; diffs <= 5 {
				t.Errorf("%s row %d %s: %q, committed %q", name, r, header[c], rows[r][c], want[r][c])
			}
		}
	}
	if diffs > 5 {
		t.Errorf("%s: %d cells differ", name, diffs)
	}
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// TestOutputNamesUnique: names select outputs and prefix their files,
// so two entries cannot share one, and every entry has a heading.
func TestOutputNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, o := range Outputs() {
		if seen[o.Name] || o.Heading == "" || o.Run == nil {
			t.Errorf("output %q: duplicate name, or no heading or Run", o.Name)
		}
		seen[o.Name] = true
	}
}

func TestSweepChartFromRealSweep(t *testing.T) {
	algs := []sched.Algorithm{}
	for _, n := range []sched.Name{sched.NameHeft, sched.NameHeftBudg} {
		a, err := sched.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		algs = append(algs, a)
	}
	res, err := RunSweep(Scenario{
		Type: wfgen.Montage, N: 30, SigmaRatio: 0.5, Instances: 1, Reps: 3, Workers: 2,
	}, algs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Metric{MetricMakespan, MetricCost, MetricVMs, MetricValid} {
		p, err := SweepChart(res, m)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := p.RenderSVG(&b); err != nil {
			t.Fatalf("%s: %v", p.Title, err)
		}
		if !strings.Contains(b.String(), "heftbudg") {
			t.Errorf("%s: missing series", p.Title)
		}
	}
	if _, err := SweepChart(res, "latency"); err == nil {
		t.Error("unknown metric accepted")
	}
	// Identity-stable slots.
	if algorithmSlot[sched.NameHeft] != 2 || algorithmSlot[sched.NameCGPlus] != 8 {
		t.Error("algorithm slot mapping changed — figures lose cross-figure identity")
	}
}
