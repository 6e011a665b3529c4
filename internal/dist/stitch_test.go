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

	"budgetwf/internal/obs"
)

// tracingWorker is an httptest worker that honors ShardRequest.Trace
// the way budgetwfd does: the shard executes under a "compute" span of
// the worker's own trace (its own monotonic clock), whose exported
// subtree rides the response. gate, when non-nil, runs after decoding;
// returning false means it wrote the response (failure injection).
func tracingWorker(t *testing.T, gate func(w http.ResponseWriter, r *http.Request, req *ShardRequest) bool) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req ShardRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req.Normalize()
		if gate != nil && !gate(w, r, &req) {
			return
		}
		wt := obs.New("worker")
		sp := wt.Root().Child("compute")
		resp, err := executeShard(r.Context(), &req)
		sp.End()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if req.Trace {
			resp.Trace = sp.Export()
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// childrenNamed returns the direct children of s with the given name.
func childrenNamed(s *obs.SpanJSON, name string) []*obs.SpanJSON {
	var out []*obs.SpanJSON
	for _, c := range s.Children {
		if c.Name == name {
			out = append(out, c)
		}
	}
	return out
}

// TestStitchRetriedShards: the first shard attempt 500s, splitting the
// range in half; both retries succeed and their worker compute
// subtrees stitch under retry-tagged dispatch spans of the same job
// root, with the span context propagated to the worker on the wire.
func TestStitchRetriedShards(t *testing.T) {
	var calls atomic.Int64
	var sawCtx atomic.Value
	wrk := tracingWorker(t, func(w http.ResponseWriter, r *http.Request, req *ShardRequest) bool {
		if sc, ok := obs.Extract(r.Header); ok {
			sawCtx.Store(sc)
		}
		if calls.Add(1) == 1 {
			http.Error(w, "boom", http.StatusInternalServerError)
			return false
		}
		return true
	})
	c := &Coordinator{
		Workers:       []string{wrk.URL},
		UnitsPerShard: 1 << 20, // one shard covering the whole sweep
		RetryBase:     time.Millisecond,
		RetryCap:      2 * time.Millisecond,
	}
	tr := obs.New("job")
	tr.SetID("job-retry")
	got, err := runSweep(context.Background(), c, testSweepSpec(), RunOptions{Span: tr.Root(), Epoch: 2})
	if err != nil {
		t.Fatalf("runSweep: %v", err)
	}
	want := monolithic(t, testSweepSpec())
	if !reflect.DeepEqual(stripTiming(got), stripTiming(want)) {
		t.Fatal("traced sweep differs from single-process run")
	}

	root := tr.Tree().Root
	shards := childrenNamed(root, "shard")
	if len(shards) != 3 {
		t.Fatalf("want 3 shard spans (1 failed + 2 retried halves), got %d", len(shards))
	}
	retried, stitched, failed := 0, 0, 0
	for _, s := range shards {
		if s.Attrs["retry"] == true {
			retried++
			if s.Attrs["attempt"] != int64(2) {
				t.Errorf("retried span attempt = %v, want 2", s.Attrs["attempt"])
			}
		}
		if s.Attrs["epoch"] != int64(2) {
			t.Errorf("shard span epoch = %v, want 2", s.Attrs["epoch"])
		}
		if _, ok := s.Attrs["error"]; ok {
			failed++
			continue
		}
		comp := childrenNamed(s, "compute")
		if len(comp) != 1 {
			t.Errorf("shard span [%v,%v) has %d compute children, want 1",
				s.Attrs["start"], s.Attrs["end"], len(comp))
			continue
		}
		stitched++
		if comp[0].Attrs[obs.ProcessAttr] != wrk.URL {
			t.Errorf("compute span process = %v, want %s", comp[0].Attrs[obs.ProcessAttr], wrk.URL)
		}
		if _, ok := s.Attrs["clockOffsetUs"]; !ok {
			t.Errorf("stitched shard span lacks clockOffsetUs")
		}
	}
	if failed != 1 || retried != 2 || stitched != 2 {
		t.Errorf("spans: %d failed, %d retried, %d stitched; want 1/2/2", failed, retried, stitched)
	}

	sc, _ := sawCtx.Load().(obs.SpanContext)
	if sc.TraceID != "job-retry" || sc.SpanID <= 0 || sc.Epoch != 2 {
		t.Errorf("worker saw span context %+v, want trace job-retry, positive span id, epoch 2", sc)
	}
}

// TestStitchStolenShard: the primary dispatch hangs until the run
// settles, the steal scanner re-issues the shard to the other worker,
// and the winning speculative span — tagged stolen — carries the
// worker subtree while the abandoned primary records its error, both
// under the same job root.
func TestStitchStolenShard(t *testing.T) {
	var calls atomic.Int64
	gate := func(w http.ResponseWriter, r *http.Request, req *ShardRequest) bool {
		if calls.Add(1) == 1 {
			// Primary: hold the request open; the steal winner's accept
			// cancels it via the run context.
			<-r.Context().Done()
			return false
		}
		return true
	}
	w1, w2 := tracingWorker(t, gate), tracingWorker(t, gate)
	c := &Coordinator{
		Workers:       []string{w1.URL, w2.URL},
		UnitsPerShard: 1 << 20,
		StealAfter:    10 * time.Millisecond, // scanner tick floors at 50ms
		RetryBase:     time.Millisecond,
	}
	tr := obs.New("job")
	tr.SetID("job-steal")
	got, err := runSweep(context.Background(), c, testSweepSpec(), RunOptions{Span: tr.Root()})
	if err != nil {
		t.Fatalf("runSweep: %v", err)
	}
	want := monolithic(t, testSweepSpec())
	if !reflect.DeepEqual(stripTiming(got), stripTiming(want)) {
		t.Fatal("stolen sweep differs from single-process run")
	}
	if c.Stats().Stolen == 0 {
		t.Fatal("no steal recorded")
	}

	shards := childrenNamed(tr.Tree().Root, "shard")
	if len(shards) != 2 {
		t.Fatalf("want 2 shard spans (hung primary + steal winner), got %d", len(shards))
	}
	var winner, primary *obs.SpanJSON
	for _, s := range shards {
		if s.Attrs["stolen"] == true {
			winner = s
		} else {
			primary = s
		}
	}
	if winner == nil || primary == nil {
		t.Fatalf("missing stolen or primary span among %d shard spans", len(shards))
	}
	if winner.Attrs["speculative"] != true {
		t.Errorf("stolen span not marked speculative: %v", winner.Attrs)
	}
	comp := childrenNamed(winner, "compute")
	if len(comp) != 1 {
		t.Fatalf("stolen span has %d compute children, want 1", len(comp))
	}
	if comp[0].Attrs[obs.ProcessAttr] != winner.Attrs["worker"] {
		t.Errorf("compute attributed to %v, dispatch went to %v",
			comp[0].Attrs[obs.ProcessAttr], winner.Attrs["worker"])
	}
	if _, ok := primary.Attrs["error"]; !ok {
		t.Errorf("abandoned primary span lacks error attr: %v", primary.Attrs)
	}
	if len(childrenNamed(primary, "compute")) != 0 {
		t.Errorf("abandoned primary must not carry a compute subtree")
	}
}

// TestDispatchTagsLateDuplicate drives one speculative attempt whose
// result the run refuses (its units were covered while it was in
// flight): the span must still stitch the worker subtree and be tagged
// duplicateDropped, so lost steal races stay visible in the trace.
func TestDispatchTagsLateDuplicate(t *testing.T) {
	wrk := tracingWorker(t, nil)
	c := &Coordinator{Workers: []string{wrk.URL}}
	tr := obs.New("job")
	tr.SetID("job-dup")
	opt := RunOptions{Span: tr.Root()}
	camp := resolve(t, JobSpec{Kind: KindSweep, Sweep: testSweepSpec()})
	st := c.newRunState(camp, nil)
	sh := shard{start: 0, end: 2, speculative: true}
	o := c.attempt(context.Background(), camp, st.dispatched(sh, wrk.URL, time.Now()), sh, wrk.URL, 0, opt)
	if o.err != nil {
		t.Fatalf("attempt: %v", o.err)
	}
	st.cover(0, 2, o.resp.Units) // the primary won the race
	if err := c.settle(context.Background(), st, o, opt); err != nil {
		t.Fatalf("settle: %v", err)
	}
	if n := c.Stats().LateDuplicates; n != 1 {
		t.Fatalf("LateDuplicates = %d, want 1", n)
	}
	shards := childrenNamed(tr.Tree().Root, "shard")
	if len(shards) != 1 {
		t.Fatalf("want 1 shard span, got %d", len(shards))
	}
	s := shards[0]
	if s.Attrs["duplicateDropped"] != true || s.Attrs["stolen"] != true {
		t.Errorf("span attrs %v lack duplicateDropped/stolen", s.Attrs)
	}
	if len(childrenNamed(s, "compute")) != 1 {
		t.Errorf("dropped duplicate must still carry its stitched compute subtree")
	}
}
