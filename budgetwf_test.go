package budgetwf_test

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strings"
	"testing"

	"budgetwf"
)

// TestPublicAPIFlow exercises the documented quickstart flow through
// the facade: generate → plan → replicate.
func TestPublicAPIFlow(t *testing.T) {
	w, err := budgetwf.Generate(budgetwf.Montage, 30, 0)
	if err != nil {
		t.Fatal(err)
	}
	w = w.WithSigmaRatio(0.5)
	p := budgetwf.DefaultPlatform()
	anchors, err := budgetwf.ComputeAnchors(w, p)
	if err != nil {
		t.Fatal(err)
	}
	budget := 1.5 * anchors.CheapCost
	s, err := budgetwf.ScheduleWith(budgetwf.AlgHeftBudg, w, p, budget)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := budgetwf.ReplicateBudget(w, p, s, 10, 42, budget)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Makespan.N != 10 || rep.Makespan.Mean <= 0 {
		t.Errorf("replication summary %+v", rep.Makespan)
	}
	if rep.ValidFrac < 0.9 {
		t.Errorf("only %.0f%% of runs within budget", 100*rep.ValidFrac)
	}
}

func TestHandBuiltWorkflowThroughFacade(t *testing.T) {
	w := budgetwf.NewWorkflow("hand")
	a := w.AddTask("a", budgetwf.Dist{Mean: 50e9, Sigma: 5e9})
	b := w.AddTask("b", budgetwf.Dist{Mean: 30e9, Sigma: 3e9})
	w.MustAddEdge(a, b, 100e6)
	if err := w.SetExternalIO(a, 1e9, 0); err != nil {
		t.Fatal(err)
	}
	p := budgetwf.DefaultPlatform()
	s, err := budgetwf.ScheduleWith(budgetwf.AlgMinMinBudg, w, p, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := budgetwf.Simulate(w, p, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 || res.TotalCost <= 0 {
		t.Error("degenerate simulation result")
	}
	det, err := budgetwf.SimulateDeterministic(w, p, s)
	if err != nil {
		t.Fatal(err)
	}
	if det.TotalCost > 1.0 {
		t.Errorf("deterministic cost %.4f exceeded the $1 budget", det.TotalCost)
	}
}

func TestAlgorithmsRegistryThroughFacade(t *testing.T) {
	names := budgetwf.Algorithms()
	if len(names) != 9 {
		t.Fatalf("%d algorithms, want 9", len(names))
	}
	w, err := budgetwf.Generate(budgetwf.ForkJoin, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	w = w.WithSigmaRatio(0.25)
	p := budgetwf.DefaultPlatform()
	for _, name := range names {
		if _, err := budgetwf.ScheduleWith(name, w, p, 5.0); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := budgetwf.ScheduleWith("bogus", w, p, 5.0); err == nil {
		t.Error("bogus algorithm accepted")
	}
}

func TestWorkflowFileRoundTripThroughFacade(t *testing.T) {
	w, err := budgetwf.Generate(budgetwf.CyberShake, 30, 3)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/w.json"
	if err := w.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := budgetwf.LoadWorkflow(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumTasks() != w.NumTasks() || got.NumEdges() != w.NumEdges() {
		t.Error("round trip changed the workflow")
	}
}

func TestCheapestScheduleThroughFacade(t *testing.T) {
	w, err := budgetwf.Generate(budgetwf.Chain, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	w = w.WithSigmaRatio(0.5)
	p := budgetwf.DefaultPlatform()
	s, err := budgetwf.CheapestSchedule(w, p)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumVMs() != 1 {
		t.Errorf("cheapest schedule uses %d VMs", s.NumVMs())
	}
	res, err := budgetwf.SimulateDeterministic(w, p, s)
	if err != nil {
		t.Fatal(err)
	}
	// A chain on one VM has zero data motion: every task back to back.
	for i := 1; i < w.NumTasks(); i++ {
		prev := res.Tasks[i-1].Finish
		cur := res.Tasks[i].ComputeStart
		if cur-prev > 1e-9 {
			t.Errorf("gap between chained tasks: %v → %v", prev, cur)
		}
	}
}

func TestReplicateWithoutBudget(t *testing.T) {
	w, err := budgetwf.Generate(budgetwf.Chain, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	w = w.WithSigmaRatio(0.25)
	p := budgetwf.DefaultPlatform()
	s, err := budgetwf.ScheduleWith(budgetwf.AlgMinMin, w, p, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := budgetwf.ReplicateBudget(w, p, s, 6, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Budget 0 disables the validity accounting: everything counts.
	if rep.ValidFrac != 1 || rep.Budget != 0 {
		t.Errorf("replication %+v", rep)
	}
	if rep.Cost.N != 6 {
		t.Errorf("n = %d", rep.Cost.N)
	}
	// Nothing to summarize is an error, not an empty Replication.
	for _, n := range []int{0, -2} {
		var invalid *budgetwf.FaultFieldError
		if rep, err := budgetwf.ReplicateBudget(w, p, s, n, 9, 1); !errors.As(err, &invalid) || invalid.Field != "replications" || rep != nil {
			t.Errorf("ReplicateBudget(n=%d) = %+v, %v; want a replications error", n, rep, err)
		}
		if st, err := budgetwf.ReplicateObjective(w, p, s, n, 9, budgetwf.Objective{Budget: 1}); err == nil || st != nil {
			t.Errorf("ReplicateObjective(n=%d) = %+v, %v; want an error", n, st, err)
		}
	}
}

func TestWriteTablesFacade(t *testing.T) {
	tables, err := budgetwf.SigmaSweep(budgetwf.FigureConfig{
		N: 30, SigmaRatio: 0.5, Instances: 1, Reps: 2, GridK: 2, Workers: 2,
	}, budgetwf.Montage, budgetwf.AlgHeftBudg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, tab := range tables {
		if err := tab.WriteASCII(&b); err != nil {
			t.Fatal(err)
		}
	}
	if !strings.Contains(b.String(), "Sigma sweep") {
		t.Error("rendered tables missing title")
	}
	if got := len(budgetwf.PaperWorkflowTypes()); got != 3 {
		t.Errorf("%d paper types", got)
	}
}

// TestReadmeListsEveryExport: README's API table has one row for every
// exported identifier of the root package and none for anything else,
// and every Example, Test or Benchmark a row names as a caller exists
// in this package and uses an identifier of that row.
func TestReadmeListsEveryExport(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, found := strings.Cut(string(readme), "\n## API\n")
	if !found {
		t.Fatal(`README.md has no "## API" section`)
	}
	section, _, _ = strings.Cut(section, "\n#")
	backticked := regexp.MustCompile("`([^`]+)`")
	callerName := regexp.MustCompile(`^(Test|Benchmark)[A-Z]\w*$|^Example\w+$`)
	type row struct{ ids, callers []string }
	var rows []row
	documented := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, " | ")
		if !strings.HasPrefix(line, "| `") || len(cells) != 2 {
			continue
		}
		var r row
		for _, m := range backticked.FindAllStringSubmatch(cells[0], -1) {
			if documented[m[1]] {
				t.Errorf("the README's API table lists %s twice", m[1])
			}
			documented[m[1]] = true
			r.ids = append(r.ids, m[1])
		}
		for _, m := range backticked.FindAllStringSubmatch(cells[1], -1) {
			if callerName.MatchString(m[1]) {
				r.callers = append(r.callers, m[1])
			}
		}
		rows = append(rows, r)
	}

	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	exported := map[string]bool{}
	uses := map[string]map[string]bool{} // test function → root identifiers it names
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			if strings.HasSuffix(name, "_test.go") {
				for _, d := range f.Decls {
					if fn, ok := d.(*ast.FuncDecl); ok {
						uses[fn.Name.Name] = rootIdents(fn.Body, pkg.Name == "budgetwf")
					}
				}
				continue
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && d.Name.IsExported() {
						exported[d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							exported[spec.Name.Name] = spec.Name.IsExported()
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								exported[n.Name] = n.IsExported()
							}
						}
					}
				}
			}
		}
	}
	count := 0
	for id, isExported := range exported {
		if isExported {
			count++
			if !documented[id] {
				t.Errorf("%s is exported but has no row in the README's API table", id)
			}
		}
	}
	if count < 40 {
		t.Fatalf("only %d exported identifiers parsed from the root package", count)
	}
	for id := range documented {
		if !exported[id] {
			t.Errorf("the README's API table lists %s, which the root package does not export", id)
		}
	}
	for _, r := range rows {
		for _, c := range r.callers {
			used, ok := uses[c]
			if !ok {
				t.Errorf("the API row of %s names %s, which this package does not define", r.ids[0], c)
				continue
			}
			ok = false
			for _, id := range r.ids {
				ok = ok || used[id]
			}
			if !ok {
				t.Errorf("the API row of %s names %s, which uses none of %v", r.ids[0], c, r.ids)
			}
		}
	}
}

// rootIdents returns the root-package identifiers body names: as
// budgetwf.X from the external test package, as bare identifiers from
// the package itself.
func rootIdents(body *ast.BlockStmt, internal bool) map[string]bool {
	used := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && x.Name == "budgetwf" {
				used[n.Sel.Name] = true
			}
		case *ast.Ident:
			if internal {
				used[n.Name] = true
			}
		}
		return true
	})
	return used
}
