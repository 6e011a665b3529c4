package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// fileSize fails the test if the file cannot be statted.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatalf("stat %s: %v", path, err)
	}
	return fi.Size()
}

// TestJournalCompactTruncates proves the compaction size contract: the
// snapshot materializes next to the journal, the journal itself shrinks
// to zero bytes, and a reopen reconstructs exactly the snapshotted
// state plus whatever tail accrued after the compaction.
func TestJournalCompactTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	j, _, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec := sweepJobSpec(3)
	id := "j00001-aaaaaaaa"
	if err := j.Append(journalRecord{Op: opSubmit, ID: id, Hash: spec.Hash(), Spec: &spec, Time: time.Now()}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(journalRecord{Op: opStart, ID: id, Epoch: 1, Time: time.Now()}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		units, _ := json.Marshal(ShardResponse{})
		if err := j.Append(journalRecord{Op: opShard, ID: id, Epoch: 1, Start: i, End: i + 1, Units: units, Time: time.Now()}); err != nil {
			t.Fatal(err)
		}
	}
	result := json.RawMessage(`{"answer":42}`)
	if err := j.Append(journalRecord{Op: opDone, ID: id, Result: result, Time: time.Now()}); err != nil {
		t.Fatal(err)
	}
	sizeBefore := fileSize(t, path)
	if sizeBefore == 0 {
		t.Fatal("journal empty before compaction; nothing to prove")
	}

	done := RestoredJob{ID: id, Seq: 1, Hash: spec.Hash(), Spec: spec, State: StateDone,
		Submitted: time.Now().UTC(), Finished: time.Now().UTC(), Result: result}
	if err := j.Compact([]RestoredJob{done}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got := fileSize(t, path); got != 0 {
		t.Errorf("journal size after compaction = %d bytes, want 0 (was %d)", got, sizeBefore)
	}
	if snap := fileSize(t, path+".snap"); snap == 0 {
		t.Error("snapshot file is empty")
	}
	st := j.Stats()
	if st.TailRecords != 0 || st.TailBytes != 0 || st.SnapshotBytes == 0 {
		t.Errorf("stats after compaction = %+v, want empty tail and non-empty snapshot", st)
	}
	seqAtSnap := st.Seq

	// Post-compaction appends land in the (now bounded) tail with
	// sequence numbers continuing past the snapshot frontier.
	spec2 := sweepJobSpec(4)
	if err := j.Append(journalRecord{Op: opSubmit, ID: "j00002-bbbbbbbb", Hash: spec2.Hash(), Spec: &spec2, Time: time.Now()}); err != nil {
		t.Fatal(err)
	}
	if st := j.Stats(); st.TailRecords != 1 || st.Seq != seqAtSnap+1 {
		t.Errorf("post-compaction stats = %+v, want tail 1 and seq %d", st, seqAtSnap+1)
	}
	j.Close()

	// Recovery = snapshot + bounded tail.
	j2, restored, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(restored) != 2 {
		t.Fatalf("restored %d jobs, want 2: %+v", len(restored), restored)
	}
	if restored[0].ID != id || restored[0].State != StateDone || string(restored[0].Result) != string(result) {
		t.Errorf("snapshotted job restored as %+v", restored[0])
	}
	if restored[1].ID != "j00002-bbbbbbbb" || restored[1].State != StatePending {
		t.Errorf("tail job restored as %+v", restored[1])
	}
	if st := j2.Stats(); st.Seq != seqAtSnap+1 {
		t.Errorf("reopened seq = %d, want %d (monotonic across compaction)", st.Seq, seqAtSnap+1)
	}
}

// TestJournalStaleTailSkippedBySeq simulates the compaction crash
// window — snapshot renamed, journal not yet truncated — by putting
// records the snapshot already covers back into the tail. Replay must
// dedupe them by sequence number; most dangerously, a stale drain
// re-queue must not resurrect a job the snapshot knows finished.
func TestJournalStaleTailSkippedBySeq(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	j, _, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec := sweepJobSpec(5)
	id := "j00001-cccccccc"
	j.Append(journalRecord{Op: opSubmit, ID: id, Hash: spec.Hash(), Spec: &spec, Time: time.Now()})
	j.Append(journalRecord{Op: opRequeue, ID: id, Time: time.Now()}) // seq 2
	result := json.RawMessage(`{"ok":true}`)
	j.Append(journalRecord{Op: opDone, ID: id, Result: result, Time: time.Now()}) // seq 3
	done := RestoredJob{ID: id, Seq: 1, Hash: spec.Hash(), Spec: spec, State: StateDone,
		Submitted: time.Now().UTC(), Result: result}
	if err := j.Compact([]RestoredJob{done}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Crash window: the pre-compaction tail reappears after the
	// snapshot rename. The requeue record (seq 2) is the poison pill.
	stale := fmt.Sprintf(`{"op":"submit","seq":1,"id":%q,"hash":%q,"spec":%s,"time":%q}`+"\n"+
		`{"op":"requeue","seq":2,"id":%q,"time":%q}`+"\n",
		id, spec.Hash(), mustJSON(t, spec), time.Now().Format(time.RFC3339),
		id, time.Now().Format(time.RFC3339))
	if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}

	_, restored, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 {
		t.Fatalf("restored %d jobs, want 1", len(restored))
	}
	if restored[0].State != StateDone || string(restored[0].Result) != string(result) {
		t.Errorf("stale tail resurrected the job: %+v", restored[0])
	}
}

// TestJournalDoubleRequeueIdempotent is the drain/resume double-submit
// regression: the same drain re-queue record replayed twice (or
// replayed after the job already finished) must yield exactly one job
// in the right state, never a duplicate re-run.
func TestJournalDoubleRequeueIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	j, _, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec := sweepJobSpec(6)
	id := "j00001-dddddddd"
	j.Append(journalRecord{Op: opSubmit, ID: id, Hash: spec.Hash(), Spec: &spec, Time: time.Now()})
	// Two identical drain records — the historical double-append bug.
	j.Append(journalRecord{Op: opRequeue, ID: id, Time: time.Now()})
	j.Append(journalRecord{Op: opRequeue, ID: id, Time: time.Now()})
	j.Close()

	j2, restored, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 || restored[0].State != StatePending {
		t.Fatalf("double requeue restored %+v, want one pending job", restored)
	}

	// And once the job finishes, a trailing stale requeue (written by a
	// crashing drain racing completion) must not flip it back.
	result := json.RawMessage(`{"ok":true}`)
	j2.Append(journalRecord{Op: opDone, ID: id, Result: result, Time: time.Now()})
	j2.Append(journalRecord{Op: opRequeue, ID: id, Time: time.Now()})
	j2.Close()

	_, restored, err = OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 || restored[0].State != StateDone || len(restored[0].Result) == 0 {
		t.Fatalf("requeue-after-done restored %+v, want the job done with its result", restored)
	}
}

// TestJournalTornLineAfterCompaction is the satellite torn-line case:
// a crash mid-append tears the final line of the post-compaction tail.
// Replay must keep the snapshot and every intact tail record, dropping
// only the torn line.
func TestJournalTornLineAfterCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	j, _, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	spec := sweepJobSpec(7)
	id := "j00001-eeeeeeee"
	j.Append(journalRecord{Op: opSubmit, ID: id, Hash: spec.Hash(), Spec: &spec, Time: time.Now()})
	result := json.RawMessage(`{"ok":true}`)
	j.Append(journalRecord{Op: opDone, ID: id, Result: result, Time: time.Now()})
	done := RestoredJob{ID: id, Seq: 1, Hash: spec.Hash(), Spec: spec, State: StateDone,
		Submitted: time.Now().UTC(), Result: result}
	if err := j.Compact([]RestoredJob{done}); err != nil {
		t.Fatal(err)
	}
	spec2 := sweepJobSpec(8)
	j.Append(journalRecord{Op: opSubmit, ID: "j00002-ffffffff", Hash: spec2.Hash(), Spec: &spec2, Time: time.Now()})
	j.Close()

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"op":"done","seq":9,"id":"j00002-ffffffff","resu`) // crash mid-write
	f.Close()

	_, restored, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 2 {
		t.Fatalf("restored %d jobs, want 2", len(restored))
	}
	if restored[0].State != StateDone {
		t.Errorf("snapshotted job restored as %s, want done", restored[0].State)
	}
	if restored[1].State != StatePending {
		t.Errorf("tail job restored as %s, want pending (torn done dropped)", restored[1].State)
	}
}

// TestStoreSnapshotEvery drives compaction through the store: with a
// low SnapshotEvery threshold, a handful of job lifecycles must leave
// behind a snapshot and a tail no longer than the threshold, and a
// restart must restore every job from that pair.
func TestStoreSnapshotEvery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	j, _, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	run := func(ctx context.Context, r JobRun) (any, error) { return map[string]int{"n": 1}, nil }
	s := NewStore(StoreOptions{Run: run, Journal: j, SnapshotEvery: 4})
	var ids []string
	for i := 0; i < 4; i++ {
		v, _, err := s.Submit(sweepJobSpec(uint64(100 + i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
		waitState(t, s, v.ID, StateDone)
	}
	st := j.Stats()
	if st.SnapshotBytes == 0 {
		t.Fatalf("no compaction after %d records of tail: %+v", st.TailRecords, st)
	}
	if st.TailRecords > 4 {
		t.Errorf("tail %d records exceeds SnapshotEvery=4", st.TailRecords)
	}
	if got := fileSize(t, path); got != st.TailBytes {
		t.Errorf("journal file %d bytes, stats say %d", got, st.TailBytes)
	}
	j.Close()

	j2, restored, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(restored) != len(ids) {
		t.Fatalf("restored %d jobs, want %d", len(restored), len(ids))
	}
	for i, r := range restored {
		if r.ID != ids[i] || r.State != StateDone || len(r.Result) == 0 {
			t.Errorf("job %d restored as %+v, want %s done with result", i, r, ids[i])
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestJournalWriteFailureIsCounted closes the journal's file under a
// live store: the submission is still acknowledged and runs (durability
// degrades, sweeps are not rejected), but the journal counts the failed
// appends and stops calling itself durable until a compaction succeeds.
func TestJournalWriteFailureIsCounted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	j, _, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if st := j.Stats(); st.AppendErrors != 0 || !st.Durable {
		t.Fatalf("fresh journal: %+v, want no errors and durable", st)
	}
	if (JournalStats{}).Durable {
		t.Fatal("the zero JournalStats (no journal) must not read durable")
	}
	release := make(chan struct{})
	close(release)
	s := NewStore(StoreOptions{Run: blockingRun(release), Journal: j})

	j.mu.Lock()
	j.f.Close()
	j.mu.Unlock()
	v, _, err := s.Submit(sweepJobSpec(1))
	if err != nil {
		t.Fatalf("submit with a broken journal: %v", err)
	}
	waitState(t, s, v.ID, StateDone)
	st := j.Stats()
	if st.AppendErrors == 0 || st.Durable {
		t.Fatalf("after failed appends: %+v, want errors counted and not durable", st)
	}

	// A failed compaction keeps it lossy; one that succeeds checkpoints
	// the whole store, so nothing the failed appends carried is missing.
	s.mu.Lock()
	s.compactLocked()
	s.mu.Unlock()
	if j.Stats().Durable {
		t.Fatal("durable after a compaction that could not truncate the journal")
	}
	j.mu.Lock()
	j.f, err = os.OpenFile(path, os.O_RDWR, 0o644)
	j.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.compactLocked()
	s.mu.Unlock()
	if got := j.Stats(); !got.Durable || got.AppendErrors != st.AppendErrors {
		t.Fatalf("after a successful compaction: %+v, want durable and the error count kept", got)
	}
}
