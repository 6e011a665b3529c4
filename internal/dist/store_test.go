package dist

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// blockingRun returns a RunFunc that parks until release is closed (or
// the job context ends), so tests control exactly when jobs finish.
func blockingRun(release <-chan struct{}) RunFunc {
	return func(ctx context.Context, run JobRun) (any, error) {
		run.Progress(0, 2)
		select {
		case <-release:
			run.Progress(2, 2)
			return map[string]string{"ok": "yes"}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

func sweepJobSpec(seed uint64) JobSpec {
	s := JobSpec{Kind: KindSweep, Sweep: &SweepSpec{
		WorkflowType: "chain", N: 6, SigmaRatio: 0.4,
		Algorithms: []string{"heft"}, GridK: 2, Instances: 1, Replications: 2, Seed: seed,
	}}
	s.Normalize()
	return s
}

// waitState polls until the job reaches the wanted state or the test
// times out.
func waitState(t *testing.T, s *Store, id string, want State) JobView {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if v, ok := s.Get(id); ok && v.State == want {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	v, _ := s.Get(id)
	t.Fatalf("job %s: state %s, want %s", id, v.State, want)
	return JobView{}
}

// TestStoreDedupe: identical specs collapse onto one job while it is
// pending, running or done; different specs get fresh jobs.
func TestStoreDedupe(t *testing.T) {
	release := make(chan struct{})
	s := NewStore(StoreOptions{Run: blockingRun(release)})

	v1, created, err := s.Submit(sweepJobSpec(1))
	if err != nil || !created {
		t.Fatalf("first submit: created=%v err=%v", created, err)
	}
	v2, created, err := s.Submit(sweepJobSpec(1))
	if err != nil || created {
		t.Fatalf("duplicate submit: created=%v err=%v", created, err)
	}
	if v2.ID != v1.ID {
		t.Fatalf("duplicate got id %s, want %s", v2.ID, v1.ID)
	}
	v3, created, err := s.Submit(sweepJobSpec(2))
	if err != nil || !created || v3.ID == v1.ID {
		t.Fatalf("distinct spec: id=%s created=%v err=%v", v3.ID, created, err)
	}

	close(release)
	waitState(t, s, v1.ID, StateDone)
	// A done job is a content-addressed cache hit for its spec.
	v4, created, err := s.Submit(sweepJobSpec(1))
	if err != nil || created || v4.ID != v1.ID || v4.State != StateDone {
		t.Fatalf("post-done submit: id=%s state=%s created=%v err=%v", v4.ID, v4.State, created, err)
	}
	if len(v4.Result) == 0 {
		t.Fatal("deduped done job has no result")
	}
}

// TestStoreCancel covers both cancellation paths: a queued job
// cancels immediately, a running one via its context.
func TestStoreCancel(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := NewStore(StoreOptions{Run: blockingRun(release), MaxConcurrent: 1})

	running, _, err := s.Submit(sweepJobSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, running.ID, StateRunning)
	queued, _, err := s.Submit(sweepJobSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Cancel(queued.ID); !ok || v.State != StateCancelled {
		t.Fatalf("pending cancel: ok=%v state=%s, want cancelled", ok, v.State)
	}
	if _, ok := s.Cancel(running.ID); !ok {
		t.Fatal("running cancel: job not found")
	}
	waitState(t, s, running.ID, StateCancelled)
	if _, ok := s.Cancel("j99999-nope"); ok {
		t.Fatal("cancelling an unknown job reported ok")
	}
	// Cancelled jobs do not block resubmission.
	v, created, err := s.Submit(sweepJobSpec(2))
	if err != nil || !created {
		t.Fatalf("resubmit after cancel: created=%v err=%v", created, err)
	}
	if v.ID == queued.ID {
		t.Fatal("resubmission reused the cancelled job")
	}
}

// TestStoreDrainRequeuesToJournal is the graceful-drain contract: a
// drain whose context expires re-queues in-flight jobs to the journal,
// and a fresh store replaying that journal resumes them to completion.
func TestStoreDrainRequeuesToJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	j, restored, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 0 {
		t.Fatalf("fresh journal restored %d jobs", len(restored))
	}
	release := make(chan struct{})
	s := NewStore(StoreOptions{Run: blockingRun(release), Journal: j})
	v, _, err := s.Submit(sweepJobSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, v.ID, StateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain = %v, want deadline exceeded (job was parked)", err)
	}
	if _, _, err := s.Submit(sweepJobSpec(8)); !errors.Is(err, ErrNotAccepting) {
		t.Fatalf("submit after drain = %v, want ErrNotAccepting", err)
	}
	j.Close()

	// Next process: replay and resume.
	j2, restored, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 || restored[0].State != StatePending {
		t.Fatalf("restored = %+v, want one pending job", restored)
	}
	if restored[0].ID != v.ID {
		t.Fatalf("restored id %s, want %s", restored[0].ID, v.ID)
	}
	close(release) // the resumed run completes immediately
	s2 := NewStore(StoreOptions{Run: blockingRun(release), Journal: j2})
	s2.Restore(restored)
	done := waitState(t, s2, v.ID, StateDone)
	if len(done.Result) == 0 {
		t.Fatal("resumed job finished without a result")
	}
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatalf("clean drain: %v", err)
	}
	j2.Close()

	// Third replay: the job is terminal with its result persisted.
	_, restored, err = OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 || restored[0].State != StateDone || len(restored[0].Result) == 0 {
		t.Fatalf("final replay = %+v, want one done job with result", restored)
	}
}

// TestJournalSkipsTornLine: a crash mid-append leaves a torn final
// line; replay drops it and keeps everything before it.
func TestJournalSkipsTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	j, _, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec := sweepJobSpec(3)
	if err := j.Append(journalRecord{Op: opSubmit, ID: "j00001-aaaaaaaa", Hash: spec.Hash(), Spec: &spec, Time: time.Now()}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"done","id":"j00001-aaaaaaaa","resu`) // torn mid-crash
	f.Close()

	_, restored, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 || restored[0].State != StatePending {
		t.Fatalf("restored = %+v, want the submit surviving as pending", restored)
	}
}

// TestStoreFull: a store whose records are all live rejects the next
// submission with ErrStoreFull; one terminal record frees a slot.
func TestStoreFull(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := NewStore(StoreOptions{Run: blockingRun(release), MaxJobs: 2, MaxConcurrent: 2})
	a, _, err := s.Submit(sweepJobSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Submit(sweepJobSpec(2)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Submit(sweepJobSpec(3)); !errors.Is(err, ErrStoreFull) {
		t.Fatalf("submit to full store = %v, want ErrStoreFull", err)
	}
	if v, ok := s.Cancel(a.ID); !ok || v.State == StateRunning {
		waitState(t, s, a.ID, StateCancelled)
	}
	waitState(t, s, a.ID, StateCancelled)
	if _, _, err := s.Submit(sweepJobSpec(3)); err != nil {
		t.Fatalf("submit after eviction: %v", err)
	}
}
