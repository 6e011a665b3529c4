package main

import (
	"context"
	"encoding/csv"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"budgetwf/internal/exp"
	"budgetwf/internal/server"
)

func TestRunFigure1Quick(t *testing.T) {
	dir := t.TempDir()
	var out, errw strings.Builder
	if err := run([]string{"-fig", "1", "-quick", "-out", dir}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 1") {
		t.Error("ASCII output missing title")
	}
	csvs, err := filepath.Glob(dir + "/1_*.csv")
	if err != nil || len(csvs) != 3 {
		t.Fatalf("%d CSVs written (%v), want 3", len(csvs), err)
	}
	data, err := os.ReadFile(csvs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "makespan_mean") {
		t.Error("CSV missing header")
	}
	if !strings.Contains(errw.String(), "[1] done") {
		t.Error("progress log missing")
	}
}

func TestRunSigmaQuick(t *testing.T) {
	dir := t.TempDir()
	var out, errw strings.Builder
	if err := run([]string{"-fig", "sigma", "-quick", "-out", dir}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"0.25", "1.00"} {
		if !strings.Contains(out.String(), s) {
			t.Errorf("sigma output missing σ=%s", s)
		}
	}
}

func TestRunTable3bQuick(t *testing.T) {
	dir := t.TempDir()
	var out, errw strings.Builder
	if err := run([]string{"-table", "3b", "-quick", "-out", dir}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Table III(b)") {
		t.Error("table output missing")
	}
	// Quick mode uses sizes 30 and 60 only.
	if strings.Contains(out.String(), "\n400") {
		t.Error("quick mode ran n=400")
	}
}

// TestRunSizeReachesSizedTables: -n is the one size of Table III(b)
// and of the budget-gap table, whose quick sizes are 30 and 60.
func TestRunSizeReachesSizedTables(t *testing.T) {
	for _, args := range [][]string{{"-table", "3b"}, {"-fig", "budgetgap"}} {
		dir := t.TempDir()
		var out, errw strings.Builder
		if err := run(append(args, "-quick", "-n", "30", "-out", dir), &out, &errw); err != nil {
			t.Fatal(err)
		}
		csvs, err := filepath.Glob(filepath.Join(dir, args[1]+"_*.csv"))
		if err != nil || len(csvs) != 1 {
			t.Fatalf("%v: %d CSVs written (%v), want 1", args, len(csvs), err)
		}
		f, err := os.Open(csvs[0])
		if err != nil {
			t.Fatal(err)
		}
		rows, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil || len(rows) < 2 {
			t.Fatalf("%v: %d CSV rows (%v)", args, len(rows), err)
		}
		col := -1
		for i, name := range rows[0] {
			if name == "tasks" {
				col = i
			}
		}
		if col < 0 {
			t.Fatalf("%v: no tasks column in %v", args, rows[0])
		}
		for _, row := range rows[1:] {
			if row[col] != "30" {
				t.Errorf("%v -n 30: a row for %s tasks", args, row[col])
			}
		}
	}
}

func TestRunSelectionErrors(t *testing.T) {
	var out, errw strings.Builder
	if err := run([]string{"-out", t.TempDir()}, &out, &errw); err == nil {
		t.Error("no selection accepted")
	}
	// An unknown name fails listing the registry's names.
	err := run([]string{"-fig", "99", "-out", t.TempDir()}, &out, &errw)
	if err == nil {
		t.Fatal("unknown figure accepted")
	}
	for _, o := range exp.Outputs() {
		if !strings.Contains(err.Error(), o.Name) {
			t.Errorf("error %q does not list %q", err, o.Name)
		}
	}
}

func TestRunHTMLReport(t *testing.T) {
	dir := t.TempDir()
	htmlPath := dir + "/report.html"
	var out, errw strings.Builder
	if err := run([]string{"-fig", "1", "-quick", "-svg", "-out", dir, "-html", htmlPath}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, want := range []string{
		"<!DOCTYPE html>", "reproduction report", "<h2>Figure 1</h2>",
		"<svg", "min_cost", "<table>", "makespan_mean",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// 9 inline SVG panels (3 families × 3 panels), under the heading.
	if n := strings.Count(doc, "<svg"); n != 9 {
		t.Errorf("%d inline SVGs, want 9", n)
	}
	if strings.Index(doc, "<svg") < strings.Index(doc, "<h2>Figure 1</h2>") {
		t.Error("panels precede their section heading")
	}
}

// TestRunHTMLReportAblations: every panel an output returns reaches the
// report, the ablation bar chart included.
func TestRunHTMLReportAblations(t *testing.T) {
	dir := t.TempDir()
	htmlPath := dir + "/report.html"
	var out, errw strings.Builder
	if err := run([]string{"-fig", "ablations", "-quick", "-svg", "-out", dir, "-html", htmlPath}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(htmlPath)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "<svg"); n != 1 {
		t.Errorf("%d inline SVGs, want 1 (the ablation chart)", n)
	}
	if _, err := os.Stat(dir + "/ablations_minbudget.svg"); err != nil {
		t.Error(err)
	}
}

// TestRunWorkers: -workers shards Figure 1 over two in-process
// budgetwfd shard workers and writes the CSVs a local run writes,
// outside the wall-clock plantime_mean_s column.
func TestRunWorkers(t *testing.T) {
	var urls []string
	var shards atomic.Int64
	for i := 0; i < 2; i++ {
		s := server.New(server.Config{Workers: 1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/shards" {
				shards.Add(1)
			}
			s.Handler().ServeHTTP(w, r)
		}))
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
		})
		urls = append(urls, ts.URL)
	}
	local, remote := t.TempDir(), t.TempDir()
	var out, errw strings.Builder
	if err := run([]string{"-fig", "1", "-quick", "-out", local}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-fig", "1", "-quick", "-out", remote, "-workers", strings.Join(urls, ",")}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if shards.Load() == 0 {
		t.Fatalf("no shard reached a worker:\n%s", errw.String())
	}
	csvs, err := filepath.Glob(local + "/*.csv")
	if err != nil || len(csvs) != 3 {
		t.Fatalf("%d local CSVs (%v), want 3", len(csvs), err)
	}
	for _, path := range csvs {
		want := readCSV(t, path)
		got := readCSV(t, filepath.Join(remote, filepath.Base(path)))
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, local %d", filepath.Base(path), len(got), len(want))
		}
		for r := range want {
			for c := range want[r] {
				if want[0][c] != "plantime_mean_s" && got[r][c] != want[r][c] {
					t.Errorf("%s row %d %s: %q, local %q", filepath.Base(path), r, want[0][c], got[r][c], want[r][c])
				}
			}
		}
	}
}

func readCSV(t *testing.T, path string) [][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}
