package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"budgetwf/internal/exp"
	"budgetwf/internal/stats"
	"budgetwf/internal/wfgen"
)

// executeShard is the worker half of POST /v1/shards as budgetwfd runs
// it: resolve the campaign, evaluate the range on one goroutine.
func executeShard(ctx context.Context, req *ShardRequest) (*ShardResponse, error) {
	camp, err := req.Resolve()
	if err != nil {
		return nil, err
	}
	units, err := camp.Run(ctx, 1, req.Start, req.End)
	if err != nil {
		return nil, err
	}
	return &ShardResponse{Units: units}, nil
}

// testWorkerHandler serves one POST /v1/shards the way budgetwfd
// does: decode, normalize, execute locally, encode.
func testWorkerHandler(t *testing.T, w http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req.Normalize()
	resp, err := executeShard(r.Context(), &req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// testWorker is an httptest server around testWorkerHandler.
func testWorker(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		testWorkerHandler(t, w, r)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func testSweepSpec() *SweepSpec {
	return &SweepSpec{
		WorkflowType: "chain",
		N:            8,
		SigmaRatio:   0.4,
		Algorithms:   []string{"heft", "heftbudg"},
		GridK:        3,
		Instances:    2,
		Replications: 4,
		Seed:         42,
	}
}

// resolve normalizes and resolves a job spec the test knows to be
// valid.
func resolve(t *testing.T, spec JobSpec) *Campaign {
	t.Helper()
	spec.Normalize()
	camp, err := spec.Resolve()
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	return camp
}

// runSweep shards the sweep through the coordinator and merges it.
func runSweep(ctx context.Context, c *Coordinator, spec *SweepSpec, opt RunOptions) (*exp.SweepResult, error) {
	job := JobSpec{Kind: KindSweep, Sweep: spec}
	job.Normalize()
	camp, err := job.Resolve()
	if err != nil {
		return nil, err
	}
	units, err := c.Run(ctx, camp, opt)
	if err != nil {
		return nil, err
	}
	return camp.Campaign.(*exp.Sweep).Merge(units)
}

// stripTiming zeroes plan wall-time and the local-parallelism echo,
// the only observables that legitimately differ between a distributed
// and a single-process run.
func stripTiming(r *exp.SweepResult) *exp.SweepResult {
	r.Scenario.Workers = 0
	for si := range r.Series {
		for pi := range r.Series[si].Points {
			r.Series[si].Points[pi].PlanTime = stats.Summary{}
		}
	}
	return r
}

// monolithic runs the same spec through exp.RunSweepCtx in-process.
func monolithic(t *testing.T, spec *SweepSpec) *exp.SweepResult {
	t.Helper()
	s := *spec
	s.Normalize()
	sc, algs, gridK, err := s.Scenario()
	if err != nil {
		t.Fatalf("scenario: %v", err)
	}
	want, err := exp.RunSweepCtx(context.Background(), sc, algs, gridK)
	if err != nil {
		t.Fatalf("monolithic sweep: %v", err)
	}
	return want
}

// TestCoordinatorMatchesLocalRun: sharding a campaign of each kind over
// two live HTTP workers merges to the single-process result, plan time
// stripped, and the progress callback walks monotonically to the full
// unit count.
func TestCoordinatorMatchesLocalRun(t *testing.T) {
	fault := &FaultSweepSpec{WorkflowType: "chain", N: 8, Rates: []float64{0.5, 2}, Instances: 2, Replications: 3, Seed: 9}
	figure := &FigureSpec{Figure: 1, N: 20, GridK: 2, Instances: 1, Replications: 2, Seed: 3}
	cases := []struct {
		name string
		spec JobSpec
		// merge folds the units with the campaign's own Merge; local is
		// the single-process run. Both strip what legitimately differs.
		merge func(exp.Campaign, []exp.Unit) (any, error)
		local func(t *testing.T) any
	}{
		{"sweep", JobSpec{Kind: KindSweep, Sweep: testSweepSpec()},
			func(c exp.Campaign, units []exp.Unit) (any, error) {
				res, err := c.(*exp.Sweep).Merge(units)
				if err != nil {
					return nil, err
				}
				return stripTiming(res), nil
			},
			func(t *testing.T) any { return stripTiming(monolithic(t, testSweepSpec())) }},
		{"fault sweep", JobSpec{Kind: KindFaultSweep, FaultSweep: fault},
			func(c exp.Campaign, units []exp.Unit) (any, error) {
				res, err := c.(*exp.FaultSweep).Merge(units)
				if err != nil {
					return nil, err
				}
				// The scenario echo carries Alg.Plan, a func value.
				res.Scenario = exp.FaultScenario{}
				return res, nil
			},
			func(t *testing.T) any {
				res, err := exp.RunFaultSweep(exp.FaultScenario{
					Scenario: exp.Scenario{Type: wfgen.Chain, N: fault.N, Instances: fault.Instances, Reps: fault.Replications, Seed: fault.Seed},
					Rates:    fault.Rates,
				})
				if err != nil {
					t.Fatal(err)
				}
				res.Scenario = exp.FaultScenario{}
				return res
			}},
		{"figure", JobSpec{Kind: KindFigure, Figure: figure},
			func(c exp.Campaign, units []exp.Unit) (any, error) {
				sweeps, err := c.(*exp.FigureSweeps).Merge(units)
				for _, res := range sweeps {
					stripTiming(res)
				}
				return sweeps, err
			},
			func(t *testing.T) any {
				sweeps, err := exp.RunFigureSweeps(figure.Figure, exp.FigureConfig{
					N: figure.N, GridK: figure.GridK, Instances: figure.Instances, Reps: figure.Replications, Seed: figure.Seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, res := range sweeps {
					stripTiming(res)
				}
				return sweeps
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w1, w2 := testWorker(t), testWorker(t)
			c := &Coordinator{
				Workers:       []string{w1.URL, w2.URL},
				UnitsPerShard: 2,
				RetryBase:     time.Millisecond,
				RetryCap:      5 * time.Millisecond,
			}
			camp := resolve(t, tc.spec)
			var lastDone, lastTotal atomic.Int64
			monotonic := true
			units, err := c.Run(context.Background(), camp, RunOptions{
				Progress: func(done, total int) {
					if int64(done) < lastDone.Load() {
						monotonic = false
					}
					lastDone.Store(int64(done))
					lastTotal.Store(int64(total))
				},
			})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			got, err := tc.merge(camp.Campaign, units)
			if err != nil {
				t.Fatalf("merge: %v", err)
			}
			if !reflect.DeepEqual(got, tc.local(t)) {
				t.Fatal("distributed run differs from single-process run")
			}
			if !monotonic {
				t.Error("progress went backwards")
			}
			if lastDone.Load() != lastTotal.Load() || lastTotal.Load() != int64(camp.Cells()) {
				t.Errorf("final progress %d/%d, want %d/%d", lastDone.Load(), lastTotal.Load(), camp.Cells(), camp.Cells())
			}
		})
	}
}

// TestCoordinatorSurvivesWorkerDeath: one worker drops every
// connection mid-request (a kill -9 as the coordinator sees it); the
// sweep still completes, bit-identical — its shards re-shard onto the
// surviving worker.
func TestCoordinatorSurvivesWorkerDeath(t *testing.T) {
	healthy := testWorker(t)
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("response writer is not a Hijacker")
			return
		}
		conn, _, err := hj.Hijack()
		if err != nil {
			return
		}
		conn.Close() // mid-request TCP reset, no HTTP response
	}))
	t.Cleanup(dead.Close)

	c := &Coordinator{
		Workers:       []string{dead.URL, healthy.URL},
		UnitsPerShard: 3,
		RetryBase:     time.Millisecond,
		RetryCap:      5 * time.Millisecond,
	}
	got, err := runSweep(context.Background(), c, testSweepSpec(), RunOptions{})
	if err != nil {
		t.Fatalf("runSweep with a dead worker: %v", err)
	}
	want := monolithic(t, testSweepSpec())
	if !reflect.DeepEqual(stripTiming(got), stripTiming(want)) {
		t.Fatal("sweep after worker death differs from single-process run")
	}
}

// TestCoordinatorLocalFallback: with every worker failing every
// attempt, shards exhaust their remote attempts and run on the
// coordinator itself — no shard is ever lost, and the result still
// matches.
func TestCoordinatorLocalFallback(t *testing.T) {
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "disk on fire", http.StatusInternalServerError)
	}))
	t.Cleanup(broken.Close)

	c := &Coordinator{
		Workers:       []string{broken.URL},
		UnitsPerShard: 4,
		MaxAttempts:   2,
		RetryBase:     time.Millisecond,
		RetryCap:      2 * time.Millisecond,
		LocalWorkers:  1,
	}
	got, err := runSweep(context.Background(), c, testSweepSpec(), RunOptions{})
	if err != nil {
		t.Fatalf("runSweep with all workers broken: %v", err)
	}
	want := monolithic(t, testSweepSpec())
	if !reflect.DeepEqual(stripTiming(got), stripTiming(want)) {
		t.Fatal("fallback sweep differs from single-process run")
	}
}

// TestCoordinatorZeroWorkers: the zero-value coordinator runs
// everything locally through the same shard path.
func TestCoordinatorZeroWorkers(t *testing.T) {
	c := &Coordinator{LocalWorkers: 2}
	got, err := runSweep(context.Background(), c, testSweepSpec(), RunOptions{})
	if err != nil {
		t.Fatalf("runSweep: %v", err)
	}
	want := monolithic(t, testSweepSpec())
	if !reflect.DeepEqual(stripTiming(got), stripTiming(want)) {
		t.Fatal("local coordinator run differs from exp.RunSweepCtx")
	}
}

// TestCoordinatorCancellation: a cancelled context aborts the run with
// the context's error rather than hanging or fabricating a result.
func TestCoordinatorCancellation(t *testing.T) {
	w := testWorker(t)
	c := &Coordinator{Workers: []string{w.URL}, UnitsPerShard: 1}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := runSweep(ctx, c, testSweepSpec(), RunOptions{}); err == nil {
		t.Fatal("RunSweep with cancelled context succeeded")
	}
}

// TestCoordinatorRejectsMiscoveringWorker: a worker whose response has
// the right number of units but not the right content — indices shifted
// off the requested range, a truncated makespans array — is a failed
// attempt like any other: its shards re-run elsewhere and the job still
// completes bit-identical to the single-process run, instead of failing
// at merge or merging into a wrong aggregate.
func TestCoordinatorRejectsMiscoveringWorker(t *testing.T) {
	for name, corrupt := range map[string]func(*ShardResponse){
		"shifted indices": func(r *ShardResponse) {
			for i := range r.Units {
				r.Units[i].Unit++
			}
		},
		"truncated makespans": func(r *ShardResponse) {
			u := &r.Units[len(r.Units)-1]
			u.Makespans = u.Makespans[:len(u.Makespans)-1]
		},
	} {
		t.Run(name, func(t *testing.T) {
			var served atomic.Int64
			bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				var req ShardRequest
				if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
					t.Error(err)
					return
				}
				resp, err := executeShard(r.Context(), &req)
				if err != nil {
					t.Error(err)
					return
				}
				corrupt(resp)
				served.Add(1)
				json.NewEncoder(w).Encode(resp)
			}))
			t.Cleanup(bad.Close)
			good := testWorker(t)
			c := &Coordinator{
				Workers:       []string{bad.URL, good.URL},
				UnitsPerShard: 2,
				RetryBase:     time.Millisecond,
				RetryCap:      5 * time.Millisecond,
			}
			got, err := runSweep(context.Background(), c, testSweepSpec(), RunOptions{})
			if err != nil {
				t.Fatalf("runSweep: %v", err)
			}
			if !reflect.DeepEqual(stripTiming(got), stripTiming(monolithic(t, testSweepSpec()))) {
				t.Fatal("sweep with a miscovering worker differs from single-process run")
			}
			if served.Load() == 0 || c.Stats().Requeued == 0 {
				t.Errorf("bad worker served %d shards, %d requeued: the rejection path did not run", served.Load(), c.Stats().Requeued)
			}
		})
	}
}

// TestCoordinatorRecomputesMalformedJournalledShard: a journalled shard
// whose payload would merge wrongly (a short costs array, or units under
// the per-kind "sweepUnits" key older journals used) is ignored and its
// range recomputed; the well-formed one beside it is adopted.
func TestCoordinatorRecomputesMalformedJournalledShard(t *testing.T) {
	s := *testSweepSpec()
	s.Normalize()
	journalled := func(start, end int, corrupt func(*ShardResponse)) ShardResult {
		resp, err := executeShard(context.Background(), &ShardRequest{JobSpec: JobSpec{Kind: KindSweep, Sweep: &s}, Start: start, End: end})
		if err != nil {
			t.Fatal(err)
		}
		corrupt(resp)
		raw, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return ShardResult{Start: start, End: end, Units: raw}
	}
	completed := []ShardResult{
		journalled(0, 2, func(*ShardResponse) {}),
		journalled(2, 4, func(r *ShardResponse) { r.Units[0].Costs = r.Units[0].Costs[:1] }),
	}
	legacy := journalled(4, 6, func(*ShardResponse) {})
	legacy.Units = bytes.Replace(legacy.Units, []byte(`"units":`), []byte(`"sweepUnits":`), 1)
	completed = append(completed, legacy)
	var fresh [][2]int
	c := &Coordinator{LocalWorkers: 1}
	got, err := runSweep(context.Background(), c, testSweepSpec(), RunOptions{
		Completed: completed,
		OnShard:   func(r ShardResult) { fresh = append(fresh, [2]int{r.Start, r.End}) },
	})
	if err != nil {
		t.Fatalf("runSweep: %v", err)
	}
	if !reflect.DeepEqual(stripTiming(got), stripTiming(monolithic(t, testSweepSpec()))) {
		t.Fatal("resumed sweep differs from single-process run")
	}
	if want := [][2]int{{2, 12}}; !reflect.DeepEqual(fresh, want) {
		t.Errorf("recomputed ranges %v, want %v (only the well-formed shard adopted)", fresh, want)
	}
}
