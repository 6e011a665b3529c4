package budgetwf_test

import (
	"fmt"
	"regexp"
	"strings"

	"budgetwf"
	"budgetwf/internal/stats"
)

// ExampleGenerate builds one of the paper's benchmark workflows and
// inspects its shape.
func ExampleGenerate() {
	w, err := budgetwf.Generate(budgetwf.Montage, 90, 0)
	if err != nil {
		panic(err)
	}
	fmt.Println(w.Name)
	fmt.Println("tasks:", w.NumTasks(), "edges:", w.NumEdges())
	fmt.Println("entries:", len(w.Entries()), "exits:", len(w.Exits()))
	// Output:
	// MONTAGE-90-seed0
	// tasks: 90 edges: 172
	// entries: 28 exits: 1
}

// ExampleScheduleWith plans a workflow with HEFTBUDG under a budget
// and verifies the plan deterministically: under the planner's own
// conservative weights, the realized cost never exceeds the budget.
func ExampleScheduleWith() {
	w, _ := budgetwf.Generate(budgetwf.Montage, 30, 0)
	w = w.WithSigmaRatio(0.5)
	p := budgetwf.DefaultPlatform()

	anchors, _ := budgetwf.ComputeAnchors(w, p)
	budget := 1.5 * anchors.CheapCost
	s, _ := budgetwf.ScheduleWith(budgetwf.AlgHeftBudg, w, p, budget)
	res, _ := budgetwf.SimulateDeterministic(w, p, s)

	fmt.Println("within budget:", res.TotalCost <= budget)
	fmt.Println("faster than one slow VM:", res.Makespan < anchors.CheapMakespan)
	// Output:
	// within budget: true
	// faster than one slow VM: true
}

// ExampleReplicateBudget measures a plan under stochastic task
// weights, the paper's evaluation loop.
func ExampleReplicateBudget() {
	w, _ := budgetwf.Generate(budgetwf.Ligo, 30, 0)
	w = w.WithSigmaRatio(0.5)
	p := budgetwf.DefaultPlatform()
	anchors, _ := budgetwf.ComputeAnchors(w, p)
	budget := 1.1 * anchors.CheapCost
	s, _ := budgetwf.ScheduleWith(budgetwf.AlgHeftBudg, w, p, budget)

	rep, _ := budgetwf.ReplicateBudget(w, p, s, 25, 42, budget)
	fmt.Printf("runs: %d, all within budget: %v\n", rep.Makespan.N, rep.ValidFrac == 1)
	// Output:
	// runs: 25, all within budget: true
}

// ExampleAlgorithms lists the nine algorithms of the paper's
// evaluation.
func ExampleAlgorithms() {
	for _, name := range budgetwf.Algorithms() {
		fmt.Println(name)
	}
	// Output:
	// minmin
	// heft
	// minminbudg
	// heftbudg
	// heftbudg+
	// heftbudg+inv
	// bdt
	// cg
	// cg+
}

// ExampleNewWorkflow constructs a workflow by hand.
func ExampleNewWorkflow() {
	w := budgetwf.NewWorkflow("two-step")
	extract := w.AddTask("extract", budgetwf.Dist{Mean: 60e9, Sigma: 12e9})
	report := w.AddTask("report", budgetwf.Dist{Mean: 20e9, Sigma: 2e9})
	w.MustAddEdge(extract, report, 250e6)
	_ = w.SetExternalIO(extract, 1e9, 0)

	fmt.Println("valid:", w.Validate() == nil)
	fmt.Printf("total mean work: %.0f Ginstr\n", w.TotalMeanWork()/1e9)
	// Output:
	// valid: true
	// total mean work: 80 Ginstr
}

// Example_quickstart builds a small workflow by hand, plans it with
// HEFTBUDG under a budget, and measures the realized makespan and cost
// over repeated stochastic executions.
func Example_quickstart() {
	// A toy genomics-style pipeline: split → 4 parallel aligners →
	// merge → report. Weights are instruction counts (a 1e9-speed VM
	// runs 1e9 instructions per second); σ models input-dependent
	// variation. Data sizes are in bytes.
	w := budgetwf.NewWorkflow("toy-pipeline")
	split := w.AddTask("split", budgetwf.Dist{Mean: 30e9, Sigma: 6e9})
	if err := w.SetExternalIO(split, 2e9, 0); err != nil { // 2 GB of reads
		panic(err)
	}
	merge := w.AddTask("merge", budgetwf.Dist{Mean: 40e9, Sigma: 8e9})
	for i := 0; i < 4; i++ {
		align := w.AddTask(fmt.Sprintf("align_%d", i), budgetwf.Dist{Mean: 120e9, Sigma: 40e9})
		w.MustAddEdge(split, align, 500e6)
		w.MustAddEdge(align, merge, 200e6)
	}
	report := w.AddTask("report", budgetwf.Dist{Mean: 10e9, Sigma: 1e9})
	w.MustAddEdge(merge, report, 50e6)
	if err := w.SetExternalIO(report, 0, 100e6); err != nil {
		panic(err)
	}

	p := budgetwf.DefaultPlatform()

	// Budget landmarks: what the cheapest possible execution costs,
	// and what the budget-blind HEFT schedule costs.
	anchors, err := budgetwf.ComputeAnchors(w, p)
	if err != nil {
		panic(err)
	}
	fmt.Printf("cheapest execution: $%.4f (makespan %.0f s)\n", anchors.CheapCost, anchors.CheapMakespan)
	fmt.Printf("HEFT, no budget:    $%.4f (makespan %.0f s)\n\n", anchors.BaselineCost, anchors.BaselineMakespan)

	for _, factor := range []float64{1.0, 1.2, 1.5, 2.0} {
		budget := factor * anchors.CheapCost
		s, err := budgetwf.ScheduleWith(budgetwf.AlgHeftBudg, w, p, budget)
		if err != nil {
			panic(err)
		}
		rep, err := budgetwf.ReplicateBudget(w, p, s, 25, 42, budget)
		if err != nil {
			panic(err)
		}
		fmt.Printf("budget $%.4f (%.1f× min): makespan %7.1f ± %5.1f s, cost $%.4f, %d VMs, %3.0f%% within budget\n",
			budget, factor, rep.Makespan.Mean, rep.Makespan.StdDev, rep.Cost.Mean, s.NumVMs(), 100*rep.ValidFrac)
	}
	// Output:
	// cheapest execution: $0.1237 (makespan 812 s)
	// HEFT, no budget:    $0.1293 (makespan 213 s)
	//
	// budget $0.1237 (1.0× min): makespan   653.4 ±  74.3 s, cost $0.1220, 1 VMs, 100% within budget
	// budget $0.1484 (1.2× min): makespan   206.5 ±   5.5 s, cost $0.1279, 3 VMs, 100% within budget
	// budget $0.1855 (1.5× min): makespan   206.5 ±   5.5 s, cost $0.1279, 3 VMs, 100% within budget
	// budget $0.2474 (2.0× min): makespan   206.5 ±   5.5 s, cost $0.1279, 3 VMs, 100% within budget
}

// Example_comparison runs all nine scheduling algorithms head-to-head
// on one CyberShake instance at three budget levels (low / medium /
// high, as in Table III), reporting realized makespan, cost, VM count
// and budget validity for each.
func Example_comparison() {
	w, err := budgetwf.Generate(budgetwf.CyberShake, 30, 0)
	if err != nil {
		panic(err)
	}
	w = w.WithSigmaRatio(0.5)
	p := budgetwf.DefaultPlatform()
	anchors, err := budgetwf.ComputeAnchors(w, p)
	if err != nil {
		panic(err)
	}

	levels := []struct {
		name   string
		budget float64
	}{
		{"low", anchors.CheapCost},
		{"medium", (anchors.CheapCost + anchors.High) / 2},
		{"high", anchors.High},
	}

	fmt.Printf("workflow %s — cheapest $%.4f, HEFT baseline $%.4f (makespan %.0f s)\n",
		w.Name, anchors.CheapCost, anchors.BaselineCost, anchors.BaselineMakespan)
	for _, level := range levels {
		fmt.Printf("\n=== %s budget: $%.4f ===\n", level.name, level.budget)
		fmt.Printf("%-14s %12s %12s %6s %7s\n", "algorithm", "makespan [s]", "cost [$]", "VMs", "valid")
		for _, name := range budgetwf.Algorithms() {
			s, err := budgetwf.ScheduleWith(name, w, p, level.budget)
			if err != nil {
				panic(err)
			}
			rep, err := budgetwf.ReplicateBudget(w, p, s, 15, 11, level.budget)
			if err != nil {
				panic(err)
			}
			fmt.Printf("%-14s %12.1f %12.4f %6d %6.0f%%\n",
				name, rep.Makespan.Mean, rep.Cost.Mean, s.NumVMs(), 100*rep.ValidFrac)
		}
	}
	fmt.Println("\nBaselines (minmin, heft) ignore the budget: at the low level they")
	fmt.Println("overspend. The budget-aware variants trade makespan for validity.")
	// Output:
	// workflow CYBERSHAKE-30-seed0 — cheapest $3.0593, HEFT baseline $3.0890 (makespan 183 s)
	//
	// === low budget: $3.0593 ===
	// algorithm      makespan [s]     cost [$]    VMs   valid
	// minmin                174.5       3.0745     14      0%
	// heft                  174.5       3.0737     14      0%
	// minminbudg            991.2       3.0374      4    100%
	// heftbudg             1269.6       3.0384      4    100%
	// heftbudg+             983.1       3.0399      5    100%
	// heftbudg+inv          986.5       3.0389      4    100%
	// bdt                   174.5       3.0737     14      0%
	// cg                    411.9       3.0373     14    100%
	// cg+                   386.5       3.0554     20     73%
	//
	// === medium budget: $3.1358 ===
	// algorithm      makespan [s]     cost [$]    VMs   valid
	// minmin                174.5       3.0745     14    100%
	// heft                  174.5       3.0737     14    100%
	// minminbudg            174.5       3.0745     14    100%
	// heftbudg              174.5       3.0737     14    100%
	// heftbudg+             174.5       3.0737     14    100%
	// heftbudg+inv          174.5       3.0737     14    100%
	// bdt                   174.5       3.0768     14    100%
	// cg                    174.5       3.0737     14    100%
	// cg+                   174.5       3.0737     14    100%
	//
	// === high budget: $3.2122 ===
	// algorithm      makespan [s]     cost [$]    VMs   valid
	// minmin                174.5       3.0745     14    100%
	// heft                  174.5       3.0737     14    100%
	// minminbudg            174.5       3.0745     14    100%
	// heftbudg              174.5       3.0737     14    100%
	// heftbudg+             174.5       3.0737     14    100%
	// heftbudg+inv          174.5       3.0737     14    100%
	// bdt                   174.5       3.0768     14    100%
	// cg                    174.5       3.0737     14    100%
	// cg+                   174.5       3.0737     14    100%
	//
	// Baselines (minmin, heft) ignore the budget: at the low level they
	// overspend. The budget-aware variants trade makespan for validity.
}

// Example_daxImport schedules a real-world workflow description.
// Pegasus DAX is the format the paper's benchmark workflows were
// originally distributed in; this example loads the classic "black
// diamond" DAX, instantiates uncertainty on its profiled runtimes, and
// compares every algorithm under a tight budget.
func Example_daxImport() {
	w, err := budgetwf.LoadWorkflow("testdata/blackdiamond.dax")
	if err != nil {
		panic(err)
	}
	// DAX runtimes are point estimates; model ±40% input-dependent
	// variation, as a user with profiled-but-noisy traces would.
	w = w.WithSigmaRatio(0.4)

	fmt.Printf("loaded %s: %d tasks, %d dependencies, %.1f GB external input\n\n",
		w.Name, w.NumTasks(), w.NumEdges(), w.ExternalInSize()/1e9)

	p := budgetwf.DefaultPlatform()
	anchors, err := budgetwf.ComputeAnchors(w, p)
	if err != nil {
		panic(err)
	}
	budget := 1.2 * anchors.CheapCost
	fmt.Printf("budget $%.4f (cheapest $%.4f, HEFT baseline $%.4f at %.0f s)\n\n",
		budget, anchors.CheapCost, anchors.BaselineCost, anchors.BaselineMakespan)

	fmt.Printf("%-14s %12s %10s %6s %7s\n", "algorithm", "makespan [s]", "cost [$]", "VMs", "valid")
	for _, name := range budgetwf.Algorithms() {
		s, err := budgetwf.ScheduleWith(name, w, p, budget)
		if err != nil {
			panic(err)
		}
		rep, err := budgetwf.ReplicateBudget(w, p, s, 25, 7, budget)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-14s %12.1f %10.4f %6d %6.0f%%\n",
			name, rep.Makespan.Mean, rep.Cost.Mean, s.NumVMs(), 100*rep.ValidFrac)
	}
	// Output:
	// loaded blackdiamond: 4 tasks, 4 dependencies, 2.0 GB external input
	//
	// budget $0.1439 (cheapest $0.1200, HEFT baseline $0.1224 at 197 s)
	//
	// algorithm      makespan [s]   cost [$]    VMs   valid
	// minmin                164.3     0.1205      1    100%
	// heft                  164.3     0.1205      1    100%
	// minminbudg            164.3     0.1205      1    100%
	// heftbudg              164.3     0.1205      1    100%
	// heftbudg+             164.3     0.1205      1    100%
	// heftbudg+inv          164.3     0.1205      1    100%
	// bdt                   164.3     0.1205      1    100%
	// cg                    164.3     0.1205      1    100%
	// cg+                   164.3     0.1205      1    100%
}

// Example_montageSweep is a Figure-1-style budget sweep on a MONTAGE
// instance, comparing the budget-blind baselines with the budget-aware
// variants through the experiment harness.
func Example_montageSweep() {
	cfg := budgetwf.FigureConfig{
		N:          60,
		SigmaRatio: 0.5,
		Instances:  3,
		Reps:       10,
		GridK:      6,
	}
	tables, err := budgetwf.Figure(1, cfg)
	if err != nil {
		panic(err)
	}
	// Figure returns one table per family (CyberShake, LIGO, Montage);
	// print the Montage one. Its last column, plantime_mean_s, is
	// wall-clock planning time and differs from run to run, so it is
	// dropped; an Output block cannot hold the padding that ends each
	// remaining line either, so that is trimmed.
	montage := tables[2]
	montage.Columns = montage.Columns[:len(montage.Columns)-1]
	for i, row := range montage.Rows {
		montage.Rows[i] = row[:len(row)-1]
	}
	var b strings.Builder
	if err := montage.WriteASCII(&b); err != nil {
		panic(err)
	}
	fmt.Print(regexp.MustCompile(` +\n`).ReplaceAllString(b.String(), "\n"))
	fmt.Println("Columns mirror the paper's Figure 1: makespan (first panel),")
	fmt.Println("cost (second panel) and number of VMs (third panel), one row")
	fmt.Println("per (algorithm, budget). The min_cost row is the green dot.")
	// Output:
	// ## Figure 1 — montage, 60 tasks
	// workflow  n   sigma  algorithm   factor  budget   makespan_mean  makespan_std  cost_mean  cost_std   vms_mean  valid_pct
	// --------  --  -----  ----------  ------  -------  -------------  ------------  ---------  ---------  --------  ---------
	// montage   60  0.5    minmin      1       0.03381  137.3          7.44          0.05981    0.006065   18        0
	// montage   60  0.5    minmin      1.452   0.04909  134.4          8.715         0.05791    0.006388   18        6.667
	// montage   60  0.5    minmin      1.904   0.06437  135            9.899         0.05966    0.006329   18        80
	// montage   60  0.5    minmin      2.356   0.07965  133.9          10.77         0.05952    0.006098   18        100
	// montage   60  0.5    minmin      2.808   0.09493  131.3          8.328         0.0589     0.005634   18        100
	// montage   60  0.5    minmin      3.26    0.1102   133.4          11.92         0.05892    0.007754   18        100
	// montage   60  0.5    heft        1       0.03381  135            9.312         0.05984    0.006968   18        0
	// montage   60  0.5    heft        1.452   0.04909  134.7          11.54         0.06011    0.007537   18        10
	// montage   60  0.5    heft        1.904   0.06437  133.6          11.18         0.05847    0.006612   18        83.33
	// montage   60  0.5    heft        2.356   0.07965  132.2          13.16         0.05718    0.009342   18        100
	// montage   60  0.5    heft        2.808   0.09493  134.9          7.928         0.0614     0.005859   18        100
	// montage   60  0.5    heft        3.26    0.1102   137            9.74          0.06087    0.005533   18        100
	// montage   60  0.5    minminbudg  1       0.03381  713.5          67.22         0.02686    0.0008242  5.667     100
	// montage   60  0.5    minminbudg  1.452   0.04909  247.3          20.01         0.03526    0.001019   30        100
	// montage   60  0.5    minminbudg  1.904   0.06437  143.1          8.025         0.04474    0.002445   18        100
	// montage   60  0.5    minminbudg  2.356   0.07965  133.5          8.62          0.05518    0.004886   18        100
	// montage   60  0.5    minminbudg  2.808   0.09493  135.1          8.301         0.06014    0.006079   18        100
	// montage   60  0.5    minminbudg  3.26    0.1102   137.3          8.694         0.06169    0.006216   18        100
	// montage   60  0.5    heftbudg    1       0.03381  778.4          49.23         0.02677    0.0005711  4.667     100
	// montage   60  0.5    heftbudg    1.452   0.04909  259.1          32.19         0.03514    0.001176   31.33     100
	// montage   60  0.5    heftbudg    1.904   0.06437  138            8.002         0.04361    0.002769   18        100
	// montage   60  0.5    heftbudg    2.356   0.07965  136.1          8.507         0.05598    0.006064   18        100
	// montage   60  0.5    heftbudg    2.808   0.09493  136.4          10.25         0.05906    0.005794   18        100
	// montage   60  0.5    heftbudg    3.26    0.1102   134.8          7.74          0.05939    0.005885   18        100
	// montage   60  0.5    min_cost    1       0.03381  1799           0             0.03381    0          1         100
	//
	// Columns mirror the paper's Figure 1: makespan (first panel),
	// cost (second panel) and number of VMs (third panel), one row
	// per (algorithm, budget). The min_cost row is the green dot.
}

// Example_onlineRescheduling evaluates the paper's §VI future-work
// direction under a heavy-tail weight model. A small fraction of tasks
// suffers pathological 15× slowdowns (data-dependent blow-ups the
// Gaussian model cannot produce); the online controller detects them
// through 3.5σ timeouts and restarts them on fresh fastest-category
// VMs. The run compares the static schedule with unguarded, guarded
// and gain-ruled monitoring — the risk the paper names: "such dynamic
// decisions encompass risks in terms of both final makespan and
// budget" (§VI).
func Example_onlineRescheduling() {
	p := budgetwf.DefaultPlatform()
	w, err := budgetwf.Generate(budgetwf.Montage, 60, 0)
	if err != nil {
		panic(err)
	}
	w = w.WithSigmaRatio(0.5)
	anchors, err := budgetwf.ComputeAnchors(w, p)
	if err != nil {
		panic(err)
	}
	// A budget in the mixed-category regime: most tasks sit on slow or
	// medium VMs, so a straggler has somewhere faster to go.
	budget := 1.3 * anchors.CheapCost
	s, err := budgetwf.ScheduleWith(budgetwf.AlgHeftBudg, w, p, budget)
	if err != nil {
		panic(err)
	}

	outliers := budgetwf.Outliers{Prob: 0.06, Factor: 15}
	// 3.5σ timeouts: a Gaussian task exceeds them with probability
	// ≈0.02%, so in practice only the pathological blow-ups fire the
	// monitor (2σ would also catch ordinary unlucky draws, whose thin
	// residual work never repays a fresh VM's boot).
	unguarded := budgetwf.OnlinePolicy{TimeoutSigma: 3.5, MaxMigrations: 1}
	guarded := budgetwf.OnlinePolicy{TimeoutSigma: 3.5, MaxMigrations: 1, Budget: budget}
	// The gain rule additionally waits until a fast restart is clearly
	// amortized before interrupting (GainFactor 1), filtering the
	// ordinary-tail false positives that never repay a fresh boot.
	gainRuled := budgetwf.OnlinePolicy{TimeoutSigma: 3.5, GainFactor: 1, MaxMigrations: 1, Budget: budget}

	type agg struct {
		mk, cost []float64
		valid    int
		migs     int
		vetoed   int
	}
	var static, free, safe, ruled agg
	record := func(a *agg, mk, cost float64, migs, vetoed int) {
		a.mk = append(a.mk, mk)
		a.cost = append(a.cost, cost)
		if cost <= budget {
			a.valid++
		}
		a.migs += migs
		a.vetoed += vetoed
	}

	const reps = 50
	for i := uint64(0); i < reps; i++ {
		st, onFree, err := budgetwf.ExecuteOnlineOutliers(w, p, s, i, outliers, unguarded)
		if err != nil {
			panic(err)
		}
		_, onSafe, err := budgetwf.ExecuteOnlineOutliers(w, p, s, i, outliers, guarded)
		if err != nil {
			panic(err)
		}
		_, onRuled, err := budgetwf.ExecuteOnlineOutliers(w, p, s, i, outliers, gainRuled)
		if err != nil {
			panic(err)
		}
		record(&static, st.Makespan, st.TotalCost, 0, 0)
		record(&free, onFree.Makespan, onFree.TotalCost, len(onFree.Migrations), onFree.Vetoed)
		record(&safe, onSafe.Makespan, onSafe.TotalCost, len(onSafe.Migrations), onSafe.Vetoed)
		record(&ruled, onRuled.Makespan, onRuled.TotalCost, len(onRuled.Migrations), onRuled.Vetoed)
	}

	fmt.Printf("workflow %s, budget $%.4f, %d runs, 6%% chance of a 15× task blow-up\n\n", w.Name, budget, reps)
	fmt.Printf("%-18s %10s %10s %10s %12s %8s %12s\n",
		"mode", "mean [s]", "P95 [s]", "worst [s]", "cost [$]", "valid", "migrations")
	row := func(name string, a agg) {
		fmt.Printf("%-18s %10.1f %10.1f %10.1f %12.4f %5d/%d %8d (%d vetoed)\n",
			name, stats.Mean(a.mk), stats.Percentile(a.mk, 95), stats.Percentile(a.mk, 100),
			stats.Mean(a.cost), a.valid, reps, a.migs, a.vetoed)
	}
	row("static", static)
	row("online unguarded", free)
	row("online guarded", safe)
	row("guarded + gain", ruled)

	fmt.Println("\nUnguarded monitoring buys the best tail makespan but overspends;")
	fmt.Println("the budget guard keeps part of the gain while limiting the damage —")
	fmt.Println("the §VI trade-off, quantified. With purely Gaussian weights the")
	fmt.Println("expected residual work after a timeout is ≈0.4σ and no migration")
	fmt.Println("would ever pay for a fresh VM's 60 s boot.")
	// Output:
	// workflow MONTAGE-60-seed0, budget $0.0443, 50 runs, 6% chance of a 15× task blow-up
	//
	// mode                 mean [s]    P95 [s]  worst [s]     cost [$]    valid   migrations
	// static                  973.8     1837.4     2074.0       0.0501    11/50        0 (0 vetoed)
	// online unguarded        806.4     1187.1     1287.6       0.0591     7/50      189 (0 vetoed)
	// online guarded          943.9     1820.1     2003.9       0.0556     7/50      104 (85 vetoed)
	// guarded + gain          977.0     1865.6     2074.0       0.0520     9/50       20 (154 vetoed)
	//
	// Unguarded monitoring buys the best tail makespan but overspends;
	// the budget guard keeps part of the gain while limiting the damage —
	// the §VI trade-off, quantified. With purely Gaussian weights the
	// expected residual work after a timeout is ≈0.4σ and no migration
	// would ever pay for a fresh VM's 60 s boot.
}

// Example_uncertainty shows how the amount of stochasticity in task
// weights affects the budget needed to reach a target makespan (the
// extended version's σ-sensitivity experiment discussed in §V-B). For
// each σ/w̄ ratio it sweeps budgets until HEFTBUDG's mean realized
// makespan comes within 5% of the budget-blind HEFT baseline, and
// reports that "budget-to-baseline" together with the validity
// percentage at that point.
func Example_uncertainty() {
	p := budgetwf.DefaultPlatform()
	base, err := budgetwf.Generate(budgetwf.Montage, 60, 0)
	if err != nil {
		panic(err)
	}

	fmt.Println("σ/w̄    budget-to-baseline  (× cheapest)   makespan [s]    valid")
	fmt.Println("-----  ------------------  -----------   -------------   -----")
	for _, sigma := range []float64{0.0, 0.25, 0.50, 0.75, 1.00} {
		w := base.WithSigmaRatio(sigma)
		anchors, err := budgetwf.ComputeAnchors(w, p)
		if err != nil {
			panic(err)
		}
		target := anchors.BaselineMakespan * 1.05

		// Walk the budget up in 2% steps of the cheapest cost until
		// the realized makespan reaches the target.
		found := false
		for factor := 1.0; factor < 12; factor *= 1.02 {
			budget := factor * anchors.CheapCost
			s, err := budgetwf.ScheduleWith(budgetwf.AlgHeftBudg, w, p, budget)
			if err != nil {
				panic(err)
			}
			rep, err := budgetwf.ReplicateBudget(w, p, s, 15, 7, budget)
			if err != nil {
				panic(err)
			}
			if rep.Makespan.Mean <= target {
				fmt.Printf("%.2f   $%.4f            %.3f         %7.1f ± %4.1f   %3.0f%%\n",
					sigma, budget, factor, rep.Makespan.Mean, rep.Makespan.StdDev, 100*rep.ValidFrac)
				found = true
				break
			}
		}
		if !found {
			fmt.Printf("%.2f   baseline not reached within 12× the cheapest budget\n", sigma)
		}
	}
	fmt.Println("\nA larger σ inflates the conservative weights (w̄+σ) the planner")
	fmt.Println("budgets for, so reaching the baseline makespan needs more money —")
	fmt.Println("yet the budget keeps being respected (the paper's §V-B finding).")
	// Output:
	// σ/w̄    budget-to-baseline  (× cheapest)   makespan [s]    valid
	// -----  ------------------  -----------   -------------   -----
	// 0.00   $0.0515            1.848           124.9 ±  0.0   100%
	// 0.25   $0.0518            1.673           142.3 ±  5.8   100%
	// 0.50   $0.0570            1.673           154.4 ±  9.7   100%
	// 0.75   $0.0621            1.673           166.2 ± 14.1   100%
	// 1.00   $0.0686            1.707           181.4 ± 16.6   100%
	//
	// A larger σ inflates the conservative weights (w̄+σ) the planner
	// budgets for, so reaching the baseline makespan needs more money —
	// yet the budget keeps being respected (the paper's §V-B finding).
}
