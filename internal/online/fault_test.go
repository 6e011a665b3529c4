package online

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"budgetwf/internal/fault"
	"budgetwf/internal/plan"
	"budgetwf/internal/plan/plantest"
	"budgetwf/internal/platform"
	"budgetwf/internal/rng"
	"budgetwf/internal/sim"
	"budgetwf/internal/stoch"
	"budgetwf/internal/wf"
)

// scriptModel hands out a fixed list of traces in provisioning order;
// VMs beyond the script never fail. It gives the deterministic tests
// exact control over when each failure strikes.
type scriptModel struct{ traces []*scriptTrace }

func (m *scriptModel) NewVM(cat int) fault.VMTrace {
	if len(m.traces) == 0 {
		return fault.NoFaults.NewVM(cat)
	}
	tr := m.traces[0]
	m.traces = m.traces[1:]
	if tr == nil {
		return fault.NoFaults.NewVM(cat)
	}
	return tr
}

type scriptTrace struct {
	bootFail  bool
	crashAt   float64 // uptime; <= 0 means never
	taskFails []bool
}

func (t *scriptTrace) BootFails() bool { return t.bootFail }
func (t *scriptTrace) TimeToCrash() float64 {
	if t.crashAt <= 0 {
		return math.Inf(1)
	}
	return t.crashAt
}
func (t *scriptTrace) TaskFails() bool {
	if len(t.taskFails) == 0 {
		return false
	}
	f := t.taskFails[0]
	t.taskFails = t.taskFails[1:]
	return f
}

// faultTestPlatform: slow cat 0 (speed 1), fast cat 1 (speed 4),
// boot 10 s, bandwidth 100 B/s.
func faultTestPlatform() *platform.Platform {
	return &platform.Platform{
		Categories: []platform.Category{
			{Name: "slow", Speed: 1, CostPerSec: 1, InitCost: 2},
			{Name: "fast", Speed: 4, CostPerSec: 5, InitCost: 2},
		},
		Bandwidth: 100, BootTime: 10,
		DCCostPerSec: 0.01, TransferCostPerByte: 0.001,
	}
}

func injection(m fault.Model, rec fault.Recovery) *fault.Injection {
	return &fault.Injection{Model: m, Recovery: rec}
}

// chainCase builds A→B→…(weights 100 each, edges 50 B) on one slow VM.
func chainCase(n int) (*wf.Workflow, *plan.Schedule) {
	w := wf.New("chain")
	for i := 0; i < n; i++ {
		w.AddTask("t", stoch.Dist{Mean: 100, Sigma: 1})
	}
	for i := 0; i+1 < n; i++ {
		w.MustAddEdge(wf.TaskID(i), wf.TaskID(i+1), 50)
	}
	s := plan.New(n)
	s.AddVM(0)
	for i := 0; i < n; i++ {
		s.ListT = append(s.ListT, wf.TaskID(i))
		s.TaskVM[i] = 0
	}
	plantest.CompactVMs(s)
	return w, s
}

// TestCrashLosesLocalDataAndRetriesSame: a crash mid-B on a VM running
// the chain A→B kills B's computation AND A (its output only existed
// locally), the wasted uptime stays billed, and RetrySame replays both
// on a fresh same-category VM.
func TestCrashLosesLocalDataAndRetriesSame(t *testing.T) {
	w, s := chainCase(2)
	p := faultTestPlatform()
	weights := []float64{100, 100}
	pol := Policy{Faults: injection(
		&scriptModel{traces: []*scriptTrace{{crashAt: 150}}},
		fault.Recovery{Kind: fault.RetrySame},
	)}
	rep, err := Execute(w, p, s, weights, pol)
	if err != nil {
		t.Fatal(err)
	}
	// Timeline: boot 10, A 10..110, B 110..210 — crashed at 160.
	// Recovery VM: book 160, boot 170, A 170..270, B 270..370.
	if !rep.Completed || rep.Crashes != 1 || rep.Recoveries != 1 {
		t.Fatalf("completed=%v crashes=%d recoveries=%d", rep.Completed, rep.Crashes, rep.Recoveries)
	}
	if rep.NumVMs != 2 {
		t.Fatalf("NumVMs = %d, want 2", rep.NumVMs)
	}
	if rep.Makespan != 370 {
		t.Fatalf("makespan = %v, want 370", rep.Makespan)
	}
	if rep.Tasks[0].Finish != 270 || rep.Tasks[1].Finish != 370 {
		t.Fatalf("task finishes = %v / %v, want 270 / 370", rep.Tasks[0].Finish, rep.Tasks[1].Finish)
	}
	if rep.WastedSeconds != 50 {
		t.Fatalf("wasted = %v, want 50 (B ran 110..160)", rep.WastedSeconds)
	}
	// Both VM uptimes billed: [10,160] on the crashed VM, [170,370] on
	// the replacement.
	wantCost := p.VMCost(0, 10, 160) + p.VMCost(0, 170, 370) + p.DCCost(0, 0, 0, 370)
	if math.Abs(rep.TotalCost-wantCost) > 1e-9 {
		t.Fatalf("cost = %v, want %v", rep.TotalCost, wantCost)
	}
}

// TestCheckpointOnUploadSurvivesCrash: an output already uploaded to
// the datacenter survives its producer VM's crash — the producer does
// not re-run; only the in-progress task does.
func TestCheckpointOnUploadSurvivesCrash(t *testing.T) {
	w := wf.New("ckpt")
	a := w.AddTask("A", stoch.Dist{Mean: 10, Sigma: 1})
	b := w.AddTask("B", stoch.Dist{Mean: 10, Sigma: 1})
	c := w.AddTask("C", stoch.Dist{Mean: 200, Sigma: 1})
	w.MustAddEdge(a, b, 100)
	s := plan.New(3)
	s.AddVM(0)
	s.AddVM(0)
	s.ListT = []wf.TaskID{a, b, c}
	s.TaskVM[a], s.TaskVM[c] = 0, 0
	s.TaskVM[b] = 1
	s.Order = [][]wf.TaskID{{a, c}, {b}}
	p := faultTestPlatform()
	weights := []float64{10, 10, 200}
	pol := Policy{Faults: injection(
		&scriptModel{traces: []*scriptTrace{{crashAt: 90}}},
		fault.Recovery{Kind: fault.RetrySame},
	)}
	rep, err := Execute(w, p, s, weights, pol)
	if err != nil {
		t.Fatal(err)
	}
	// VM0: boot 10, A 10..20, upload done 21, C 20..220 — crash at 100.
	// A's output is checkpointed at the DC, so only C re-runs:
	// recovery VM books 100, boots 110, C 110..310.
	if !rep.Completed || rep.Crashes != 1 {
		t.Fatalf("completed=%v crashes=%d", rep.Completed, rep.Crashes)
	}
	if rep.Tasks[a].Finish != 20 {
		t.Fatalf("A finished at %v; a checkpointed task must not re-run", rep.Tasks[a].Finish)
	}
	if rep.Tasks[c].Finish != 310 {
		t.Fatalf("C finished at %v, want 310", rep.Tasks[c].Finish)
	}
	if rep.NumVMs != 3 {
		t.Fatalf("NumVMs = %d, want 3", rep.NumVMs)
	}
	if rep.Makespan != 310 {
		t.Fatalf("makespan = %v, want 310", rep.Makespan)
	}
}

// TestBootFailureBilledSetupOnly: a failed boot costs only the setup
// fee, delays the queue, and recovery reboots after the backoff.
func TestBootFailureBilledSetupOnly(t *testing.T) {
	w, s := chainCase(1)
	p := faultTestPlatform()
	pol := Policy{Faults: injection(
		&scriptModel{traces: []*scriptTrace{{bootFail: true}}},
		fault.Recovery{Kind: fault.RetrySame, RebootBackoff: 5},
	)}
	rep, err := Execute(w, p, s, []float64{100}, pol)
	if err != nil {
		t.Fatal(err)
	}
	// Boot fails at 10; backoff 5 → rebook 15, boot 25, A 25..125.
	if !rep.Completed || rep.BootFailures != 1 || rep.Recoveries != 1 {
		t.Fatalf("completed=%v bootFailures=%d recoveries=%d", rep.Completed, rep.BootFailures, rep.Recoveries)
	}
	if rep.Makespan != 125 {
		t.Fatalf("makespan = %v, want 125", rep.Makespan)
	}
	wantCost := p.Categories[0].InitCost + p.VMCost(0, 25, 125) + p.DCCost(0, 0, 0, 125)
	if math.Abs(rep.TotalCost-wantCost) > 1e-9 {
		t.Fatalf("cost = %v, want %v (boot failure must bill only the setup fee)", rep.TotalCost, wantCost)
	}
}

// TestTransientFailureRetriesInPlace: a transient task failure wastes
// exactly one attempt's compute time and retries on the same VM.
func TestTransientFailureRetriesInPlace(t *testing.T) {
	w, s := chainCase(1)
	p := faultTestPlatform()
	pol := Policy{Faults: injection(
		&scriptModel{traces: []*scriptTrace{{taskFails: []bool{true}}}},
		fault.Recovery{Kind: fault.RetrySame},
	)}
	rep, err := Execute(w, p, s, []float64{100}, pol)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || rep.TaskFailures != 1 || rep.NumVMs != 1 {
		t.Fatalf("completed=%v taskFailures=%d numVMs=%d", rep.Completed, rep.TaskFailures, rep.NumVMs)
	}
	if rep.WastedSeconds != 100 {
		t.Fatalf("wasted = %v, want the failed attempt's 100 s", rep.WastedSeconds)
	}
	if rep.Makespan != 210 {
		t.Fatalf("makespan = %v, want 210 (boot 10 + two 100 s attempts)", rep.Makespan)
	}
}

// TestReplicateFirstFinisherWins: Replicate races a same-category
// reboot against a fastest-category VM; the fast copy wins and the
// loser's burned time is reported as waste.
func TestReplicateFirstFinisherWins(t *testing.T) {
	w, s := chainCase(1)
	p := faultTestPlatform()
	pol := Policy{Faults: injection(
		&scriptModel{traces: []*scriptTrace{{crashAt: 100}}},
		fault.Recovery{Kind: fault.Replicate},
	)}
	rep, err := Execute(w, p, s, []float64{400}, pol)
	if err != nil {
		t.Fatal(err)
	}
	// Crash at 110 mid-A. Replicas book 110, boot 120: slow copy would
	// finish at 520, fast copy finishes 120+100=220 and wins.
	if !rep.Completed || rep.Crashes != 1 || rep.Recoveries != 1 {
		t.Fatalf("completed=%v crashes=%d recoveries=%d", rep.Completed, rep.Crashes, rep.Recoveries)
	}
	if rep.NumVMs != 3 {
		t.Fatalf("NumVMs = %d, want 3 (original + two replicas)", rep.NumVMs)
	}
	if rep.Makespan != 220 {
		t.Fatalf("makespan = %v, want 220 (fast replica wins)", rep.Makespan)
	}
	// Waste: 100 s burned before the crash + 100 s on the cancelled
	// slow replica (120..220).
	if rep.WastedSeconds != 200 {
		t.Fatalf("wasted = %v, want 200", rep.WastedSeconds)
	}
}

// TestResubmitFastestRecovery: the lost task moves to a fresh
// fastest-category VM immediately.
func TestResubmitFastestRecovery(t *testing.T) {
	w, s := chainCase(1)
	p := faultTestPlatform()
	pol := Policy{Faults: injection(
		&scriptModel{traces: []*scriptTrace{{crashAt: 100}}},
		fault.Recovery{Kind: fault.ResubmitFastest},
	)}
	rep, err := Execute(w, p, s, []float64{400}, pol)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Completed || rep.NumVMs != 2 {
		t.Fatalf("completed=%v numVMs=%d", rep.Completed, rep.NumVMs)
	}
	if rep.Makespan != 220 {
		t.Fatalf("makespan = %v, want 220 (crash 110, fast VM boots 120, runs 100 s)", rep.Makespan)
	}
}

// TestBudgetGuardDegradesToPartialResult: when the budget guard
// refuses a recovery the run is NOT an error — it returns a partial
// report with per-task statuses, the failure cascaded to descendants,
// and the spend so far.
func TestBudgetGuardDegradesToPartialResult(t *testing.T) {
	w, s := chainCase(3)
	p := faultTestPlatform()
	weights := []float64{100, 100, 100}
	pol := Policy{
		Budget: 1, // any recovery projects far beyond this
		Faults: injection(
			&scriptModel{traces: []*scriptTrace{{crashAt: 240}}},
			fault.Recovery{Kind: fault.RetrySame},
		),
	}
	rep, err := Execute(w, p, s, weights, pol)
	if err != nil {
		t.Fatalf("budget exhaustion must degrade, not error: %v", err)
	}
	// Crash at 250 mid-C: C in progress, B's and A's outputs local-only
	// → the whole chain is lost, and the guard refuses the reboot.
	if rep.Completed {
		t.Fatal("run reported complete despite vetoed recovery")
	}
	if rep.RecoveriesVetoed != 1 || rep.Recoveries != 0 {
		t.Fatalf("vetoed=%d recoveries=%d", rep.RecoveriesVetoed, rep.Recoveries)
	}
	if rep.TasksFailed != 3 || rep.TasksDone != 0 {
		t.Fatalf("done=%d failed=%d, want 0/3", rep.TasksDone, rep.TasksFailed)
	}
	for task, st := range rep.TaskStatus {
		if st != fault.StatusFailed {
			t.Fatalf("task %d status %v, want failed", task, st)
		}
	}
	if rep.Makespan != 250 {
		t.Fatalf("makespan = %v, want 250 (up to the crash)", rep.Makespan)
	}
	if rep.TotalCost <= 0 {
		t.Fatalf("partial run must still bill the wasted uptime, got %v", rep.TotalCost)
	}
}

// TestZeroRateFaultParityExact: a fault injection with every rate zero
// reproduces internal/sim exactly — makespan, total cost, DC cost, VM
// count and per-task realized times, bit for bit.
func TestZeroRateFaultParityExact(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w, s, p := randomOnlineCase(r)
		weights := sim.SampleWeights(w, rng.New(uint64(seed)))
		want, err1 := sim.Run(w, p, s, weights)
		spec := &fault.Spec{CrashRatePerHour: []float64{0, 0}, Seed: uint64(seed)}
		got, err2 := Execute(w, p, s, weights, Policy{Faults: spec.NewInjection()})
		if err1 != nil || err2 != nil {
			return (err1 == nil) == (err2 == nil)
		}
		if got.Makespan != want.Makespan || got.TotalCost != want.TotalCost ||
			got.DCCost != want.DCCost || got.NumVMs != want.NumVMs() {
			t.Logf("seed %d: makespan %v/%v cost %v/%v dc %v/%v vms %d/%d",
				seed, got.Makespan, want.Makespan, got.TotalCost, want.TotalCost,
				got.DCCost, want.DCCost, got.NumVMs, want.NumVMs())
			return false
		}
		if !got.Completed || got.TasksFailed != 0 || got.Crashes+got.BootFailures+got.TaskFailures != 0 {
			return false
		}
		for task := range got.Tasks {
			if got.Tasks[task] != want.Tasks[task] {
				t.Logf("seed %d task %d: times %+v vs %+v", seed, task, got.Tasks[task], want.Tasks[task])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestFaultTraceDeterminism: identical seeds yield identical fault
// traces, recovery decisions and reports, for every recovery policy.
func TestFaultTraceDeterminism(t *testing.T) {
	kinds := []string{"retry-same", "resubmit-fastest", "replicate"}
	for i, seed := range []int64{1, 7, 42, 1234, 99991} {
		r := rand.New(rand.NewSource(seed))
		w, s, p := randomOnlineCase(r)
		weights := sim.SampleWeights(w, rng.New(uint64(seed)))
		spec := &fault.Spec{
			CrashRatePerHour: []float64{3},
			BootFailProb:     0.15,
			TaskFailProb:     0.1,
			Seed:             uint64(seed),
			Recovery:         kinds[i%len(kinds)],
			RebootBackoffSec: 3,
		}
		run := func() *Report {
			rep, err := Execute(w, p, s, weights, Policy{Budget: 1e9, Faults: spec.NewInjection()})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return rep
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d (%s): reports diverged:\n%+v\nvs\n%+v", seed, spec.Recovery, a, b)
		}
	}
}

// TestFaultInvariants: across random workflows, fault environments and
// budgets, the executor never errors, accounts every task exactly
// once, and keeps the report internally consistent.
func TestFaultInvariants(t *testing.T) {
	kinds := []string{"retry-same", "resubmit-fastest", "replicate"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w, s, p := randomOnlineCase(r)
		weights := sim.SampleWeights(w, rng.New(uint64(seed)))
		spec := &fault.Spec{
			CrashRatePerHour: []float64{r.Float64() * 5},
			BootFailProb:     r.Float64() * 0.3,
			TaskFailProb:     r.Float64() * 0.2,
			Seed:             uint64(seed),
			Recovery:         kinds[r.Intn(len(kinds))],
			MaxRetries:       1 + r.Intn(4),
			RebootBackoffSec: r.Float64() * 10,
		}
		var budget float64
		switch r.Intn(3) {
		case 0:
			budget = 0 // guard lifted
		case 1:
			budget = 1e12 // generous
		case 2:
			budget = 1 + r.Float64()*200 // tight: forces partial results
		}
		rep, err := Execute(w, p, s, weights, Policy{Budget: budget, Faults: spec.NewInjection()})
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		n := w.NumTasks()
		if rep.TasksDone+rep.TasksFailed != n {
			t.Logf("seed %d: %d done + %d failed != %d tasks", seed, rep.TasksDone, rep.TasksFailed, n)
			return false
		}
		if rep.Completed != (rep.TasksFailed == 0) {
			return false
		}
		if len(rep.TaskStatus) != n {
			return false
		}
		doneN := 0
		for _, st := range rep.TaskStatus {
			if st == fault.StatusDone {
				doneN++
			}
		}
		if doneN != rep.TasksDone {
			t.Logf("seed %d: status says %d done, counter says %d", seed, doneN, rep.TasksDone)
			return false
		}
		if rep.Crashes+rep.BootFailures+rep.TaskFailures == 0 && !rep.Completed {
			t.Logf("seed %d: no failures yet incomplete", seed)
			return false
		}
		return rep.TotalCost >= rep.DCCost && rep.DCCost >= 0 &&
			rep.WastedSeconds >= 0 && rep.Makespan >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
