package dist

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestPickWorkerAvoid: a speculation is never placed on the worker it
// was stolen from while any other worker is available, but an
// only-worker fleet still gets the shard rather than stalling.
func TestPickWorkerAvoid(t *testing.T) {
	c := &Coordinator{}
	for i := 0; i < 4; i++ {
		w, wait := c.pickWorker([]string{"http://a", "http://b"}, "http://a", time.Now())
		if w != "http://b" || wait != 0 {
			t.Fatalf("pick %d = %s (wait %v), want the non-avoided worker", i, w, wait)
		}
	}
	if w, _ := c.pickWorker([]string{"http://a"}, "http://a", time.Now()); w != "http://a" {
		t.Fatalf("single-worker fleet pick = %s, want the avoided worker as last resort", w)
	}
}

// TestCoordinatorStealsFromSlowWorker: a worker that accepts shards
// and never answers (grey failure) has its in-flight shards
// speculatively re-issued to the healthy worker after StealAfter, and
// the merged result still matches the single-process run.
func TestCoordinatorStealsFromSlowWorker(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body so the server watches for client disconnects,
		// then park until the coordinator gives up on this attempt.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	t.Cleanup(slow.Close)
	fast := testWorker(t)

	c := &Coordinator{
		Workers:       []string{slow.URL, fast.URL},
		UnitsPerShard: 2,
		StealAfter:    50 * time.Millisecond,
		ShardTimeout:  200 * time.Millisecond,
		RetryBase:     time.Millisecond,
		RetryCap:      5 * time.Millisecond,
		LocalWorkers:  1,
	}
	got, err := runSweep(context.Background(), c, testSweepSpec(), RunOptions{})
	if err != nil {
		t.Fatalf("runSweep with a grey worker: %v", err)
	}
	want := monolithic(t, testSweepSpec())
	if !reflect.DeepEqual(stripTiming(got), stripTiming(want)) {
		t.Fatal("sweep with stolen shards differs from single-process run")
	}
	if st := c.Stats(); st.Stolen < 1 {
		t.Fatalf("Stats() = %+v, want at least one steal", st)
	}
}

// TestCoordinatorDynamicMembership: a sweep started against an empty
// dynamic fleet parks (burning bounded attempts), picks up a worker
// the moment it registers, and completes remotely.
func TestCoordinatorDynamicMembership(t *testing.T) {
	reg := NewRegistry(time.Minute)
	w := testWorker(t)
	c := &Coordinator{
		Members:       reg.Live,
		UnitsPerShard: 2,
		MaxAttempts:   10,
		RetryBase:     time.Millisecond,
		RetryCap:      5 * time.Millisecond,
		LocalWorkers:  1,
	}
	go func() {
		time.Sleep(100 * time.Millisecond)
		reg.Register(w.URL, "nonce-1")
	}()
	got, err := runSweep(context.Background(), c, testSweepSpec(), RunOptions{})
	if err != nil {
		t.Fatalf("runSweep with late-joining worker: %v", err)
	}
	want := monolithic(t, testSweepSpec())
	if !reflect.DeepEqual(stripTiming(got), stripTiming(want)) {
		t.Fatal("dynamic-membership sweep differs from single-process run")
	}
	if st := c.Stats(); st.Dispatched < 1 {
		t.Fatalf("Stats() = %+v, want remote dispatches to the joined worker", st)
	}
}

// TestCoordinatorExpiryRacesCompletion: a worker's heartbeat TTL
// expires while its shard is still in flight. The orphan steal fires,
// but the original completion lands first and is accepted — TTL expiry
// marks a worker suspect, it does not invalidate work already done.
func TestCoordinatorExpiryRacesCompletion(t *testing.T) {
	var (
		clockMu sync.Mutex
		clock   = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	)
	reg := NewRegistry(50 * time.Millisecond)
	reg.now = func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return clock
	}

	dispatched := make(chan struct{})
	var once sync.Once
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		once.Do(func() { close(dispatched) })
		time.Sleep(300 * time.Millisecond) // outlive the TTL below
		testWorkerHandler(t, w, r)
	}))
	t.Cleanup(worker.Close)
	reg.Register(worker.URL, "nonce-1")

	go func() {
		// Expire the worker only after its shard is in flight, so the
		// steal is guaranteed to race an in-progress computation.
		<-dispatched
		clockMu.Lock()
		clock = clock.Add(100 * time.Millisecond)
		clockMu.Unlock()
	}()

	c := &Coordinator{
		Members:       reg.Live,
		UnitsPerShard: 10000, // the whole sweep as one shard
		StealAfter:    400 * time.Millisecond,
		RetryBase:     time.Millisecond,
		RetryCap:      5 * time.Millisecond,
		LocalWorkers:  1,
	}
	got, err := runSweep(context.Background(), c, testSweepSpec(), RunOptions{})
	if err != nil {
		t.Fatalf("runSweep across TTL expiry: %v", err)
	}
	want := monolithic(t, testSweepSpec())
	if !reflect.DeepEqual(stripTiming(got), stripTiming(want)) {
		t.Fatal("result after expiry race differs from single-process run")
	}
	if st := c.Stats(); st.Stolen < 1 {
		t.Fatalf("Stats() = %+v, want the orphan steal to have fired", st)
	}
}
