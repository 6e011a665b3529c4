package exp

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestFigure3CGWinsAtMinimumBudget pins what the committed Figure 3
// CSVs show at β = 1, the smallest budget (n = 90, σ/w̄ = 0.5): on
// CyberShake and LIGO, CG is valid in every run with a lower mean
// makespan than both paper planners — 468 s against HEFTBUDG's 2 618 s
// and MIN-MINBUDG's 1 261 s, and 1 470 s against 9 353 s and 4 311 s.
// EXPERIMENTS.md marks the two Figure 3 rows that claim otherwise ~.
// The test reads results/, so it moves only when the figures are
// regenerated; a change that turns the finding fails it.
func TestFigure3CGWinsAtMinimumBudget(t *testing.T) {
	for _, file := range []string{"3_0_figure_3_cybershake_90_tasks.csv", "3_1_figure_3_ligo_90_tasks.csv"} {
		f, err := os.Open(filepath.Join(resultsDir, file))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		col := map[string]int{}
		for i, name := range rows[0] {
			col[name] = i
		}
		type point struct{ makespan, valid float64 }
		atMin := map[string]point{}
		for _, r := range rows[1:] {
			if r[col["factor"]] != "1" {
				continue
			}
			var p point
			var errM, errV error
			p.makespan, errM = strconv.ParseFloat(r[col["makespan_mean"]], 64)
			p.valid, errV = strconv.ParseFloat(r[col["valid_pct"]], 64)
			if errM != nil || errV != nil {
				t.Fatalf("%s: row %v: %v %v", file, r, errM, errV)
			}
			atMin[r[col["algorithm"]]] = p
		}
		cg, ok := atMin["cg"]
		if !ok || cg.valid != 100 {
			t.Errorf("%s β = 1: CG %+v, want 100 %% valid", file, cg)
		}
		for _, alg := range []string{"heftbudg", "minminbudg"} {
			p, ok := atMin[alg]
			if !ok || !(cg.makespan < p.makespan) {
				t.Errorf("%s β = 1: CG makespan %v s, %s %+v: CG no longer wins", file, cg.makespan, alg, p)
			}
		}
	}
}
