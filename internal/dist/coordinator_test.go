package dist

import (
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
)

// testWorkerHandler serves one POST /v1/shards the way budgetwfd
// does: decode, normalize, execute locally, encode.
func testWorkerHandler(t *testing.T, w http.ResponseWriter, r *http.Request) {
	var req ShardRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	req.Normalize()
	resp, err := ExecuteShard(r.Context(), &req, 1)
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

// TestCoordinatorMatchesLocalRun: sharding a sweep over two live HTTP
// workers merges to the bit-identical single-process result, and the
// progress callback walks monotonically to the full unit count.
func TestCoordinatorMatchesLocalRun(t *testing.T) {
	w1, w2 := testWorker(t), testWorker(t)
	c := &Coordinator{
		Workers:       []string{w1.URL, w2.URL},
		UnitsPerShard: 2,
		RetryBase:     time.Millisecond,
		RetryCap:      5 * time.Millisecond,
	}
	var lastDone, lastTotal atomic.Int64
	monotonic := true
	got, err := c.RunSweep(context.Background(), testSweepSpec(), RunOptions{
		Progress: func(done, total int) {
			if int64(done) < lastDone.Load() {
				monotonic = false
			}
			lastDone.Store(int64(done))
			lastTotal.Store(int64(total))
		},
	})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	want := monolithic(t, testSweepSpec())
	if !reflect.DeepEqual(stripTiming(got), stripTiming(want)) {
		t.Fatal("distributed sweep differs from single-process run")
	}
	if !monotonic {
		t.Error("progress went backwards")
	}
	if lastDone.Load() != lastTotal.Load() || lastTotal.Load() == 0 {
		t.Errorf("final progress %d/%d, want full coverage", lastDone.Load(), lastTotal.Load())
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
	got, err := c.RunSweep(context.Background(), testSweepSpec(), RunOptions{})
	if err != nil {
		t.Fatalf("RunSweep with a dead worker: %v", err)
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
	got, err := c.RunSweep(context.Background(), testSweepSpec(), RunOptions{})
	if err != nil {
		t.Fatalf("RunSweep with all workers broken: %v", err)
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
	got, err := c.RunSweep(context.Background(), testSweepSpec(), RunOptions{})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
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
	if _, err := c.RunSweep(ctx, testSweepSpec(), RunOptions{}); err == nil {
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
			for i := range r.SweepUnits {
				r.SweepUnits[i].Unit++
			}
		},
		"truncated makespans": func(r *ShardResponse) {
			u := &r.SweepUnits[len(r.SweepUnits)-1]
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
				resp, err := ExecuteShard(r.Context(), &req, 1)
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
			got, err := c.RunSweep(context.Background(), testSweepSpec(), RunOptions{})
			if err != nil {
				t.Fatalf("RunSweep: %v", err)
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
// whose payload would merge wrongly (a short costs array) is ignored and
// its range recomputed; the well-formed one beside it is adopted.
func TestCoordinatorRecomputesMalformedJournalledShard(t *testing.T) {
	s := *testSweepSpec()
	s.Normalize()
	journalled := func(start, end int, corrupt func(*ShardResponse)) ShardResult {
		resp, err := ExecuteShard(context.Background(), &ShardRequest{JobSpec: JobSpec{Kind: KindSweep, Sweep: &s}, Start: start, End: end}, 1)
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
		journalled(2, 4, func(r *ShardResponse) { r.SweepUnits[0].Costs = r.SweepUnits[0].Costs[:1] }),
	}
	var fresh [][2]int
	c := &Coordinator{LocalWorkers: 1}
	got, err := c.RunSweep(context.Background(), testSweepSpec(), RunOptions{
		Completed: completed,
		OnShard:   func(r ShardResult) { fresh = append(fresh, [2]int{r.Start, r.End}) },
	})
	if err != nil {
		t.Fatalf("RunSweep: %v", err)
	}
	if !reflect.DeepEqual(stripTiming(got), stripTiming(monolithic(t, testSweepSpec()))) {
		t.Fatal("resumed sweep differs from single-process run")
	}
	if want := [][2]int{{2, 12}}; !reflect.DeepEqual(fresh, want) {
		t.Errorf("recomputed ranges %v, want %v (only the well-formed shard adopted)", fresh, want)
	}
}
