package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// scriptedRun is a RunFunc whose runs park until the test tells them
// what to do: complete a shard, succeed, or fail. Each started run is
// announced on started.
type scriptedRun struct {
	started chan *parkedRun
}

type parkedRun struct {
	run  JobRun
	cmds chan runCmd
	done chan struct{}
}

// runCmd is one instruction to a parked run: a shard [start, end) to
// complete, else finish with err (nil succeeds).
type runCmd struct {
	start, end int
	err        error
	ack        chan struct{}
}

func (sr scriptedRun) run(ctx context.Context, r JobRun) (any, error) {
	p := &parkedRun{run: r, cmds: make(chan runCmd), done: make(chan struct{})}
	defer close(p.done)
	sr.started <- p
	for {
		select {
		case c := <-p.cmds:
			if c.end > c.start {
				r.CompleteShard(ShardResult{Start: c.start, End: c.end, Epoch: r.Epoch, Units: json.RawMessage(`{}`)})
				close(c.ack)
				continue
			}
			close(c.ack)
			if c.err != nil {
				return nil, c.err
			}
			return map[string]any{"id": r.ID, "shards": len(r.Shards)}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// send delivers a command unless the run has already returned.
func (p *parkedRun) send(c runCmd) {
	c.ack = make(chan struct{})
	select {
	case p.cmds <- c:
		<-c.ack
	case <-p.done:
	}
}

// liveSnapshot is what a compaction would write for the store now.
func liveSnapshot(s *Store) []RestoredJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshot()
}

// requireSameJobs compares two job lists field for field, through their
// snapshot encoding.
func requireSameJobs(t *testing.T, what string, got, want []RestoredJob) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d jobs, live store holds %d\ngot  %s\nwant %s", what, len(got), len(want), mustJSON(t, got), mustJSON(t, want))
	}
	for i := range want {
		if g, w := mustJSON(t, got[i]), mustJSON(t, want[i]); g != w {
			t.Errorf("%s: job %d differs\ngot  %s\nwant %s", what, i, g, w)
		}
	}
}

// TestStoreReplayMatchesLive is the replay≡live property: a journalled
// store driven through a seeded mix of submits (duplicates included),
// cancels of pending and running jobs, overlapping shard completions,
// successes, failures, evictions, compactions and a drain with a
// deadline restarts — from its journal and snapshot — to exactly the
// jobs it held, field for field; so does the restarted store.
func TestStoreReplayMatchesLive(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { checkReplayMatchesLive(t, seed) })
	}
}

func checkReplayMatchesLive(t *testing.T, seed int64) {
	const maxJobs = 4
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	jr, _, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Room for every run both stores can start, so no run blocks on
	// announcing itself.
	sr := scriptedRun{started: make(chan *parkedRun, 64)}
	s := NewStore(StoreOptions{Run: sr.run, Journal: jr, MaxJobs: maxJobs, MaxConcurrent: 2, SnapshotEvery: 5})
	rng := rand.New(rand.NewSource(seed))
	running := map[string]*parkedRun{}
	submitted := map[string]bool{}
	collect := func() {
		for {
			select {
			case p := <-sr.started:
				running[p.run.ID] = p
			default:
				return
			}
		}
	}
	pick := func() *parkedRun {
		for id, p := range running {
			select {
			case <-p.done:
				delete(running, id)
				continue
			default:
			}
			return p
		}
		return nil
	}
	for step := 0; step < 40; step++ {
		collect()
		switch op := rng.Intn(10); {
		case op < 3:
			v, _, err := s.Submit(sweepJobSpec(uint64(rng.Intn(8))))
			if err == nil {
				submitted[v.ID] = true
			} else if !errors.Is(err, ErrStoreFull) {
				t.Fatal(err)
			}
		case op < 4:
			if jobs := s.List(); len(jobs) > 0 {
				s.Cancel(jobs[rng.Intn(len(jobs))].ID)
			}
		case op < 7:
			if p := pick(); p != nil {
				start := rng.Intn(6)
				p.send(runCmd{start: start, end: start + 1 + rng.Intn(3)})
			}
		case op < 9:
			if p := pick(); p != nil {
				p.send(runCmd{})
			}
		default:
			if p := pick(); p != nil {
				p.send(runCmd{err: errors.New("scripted failure")})
			}
		}
		// Give queued runs a chance to start before the next step; the
		// property holds for any interleaving, this only varies them.
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	s.Drain(ctx)
	if len(submitted) <= maxJobs {
		t.Fatalf("only %d jobs submitted; the run proves nothing about eviction", len(submitted))
	}
	if jr.Stats().SnapshotBytes == 0 {
		t.Fatal("no compaction happened; the run proves nothing about snapshots")
	}
	live := liveSnapshot(s)
	if len(live) > maxJobs {
		t.Fatalf("live store holds %d jobs, MaxJobs is %d", len(live), maxJobs)
	}
	jr.Close()

	jr2, replayed, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	requireSameJobs(t, "replay", replayed, live)

	// The restarted store, drained again with its resumed runs parked,
	// replays to what it holds in turn.
	s2 := NewStore(StoreOptions{Run: sr.run, Journal: jr2, MaxJobs: maxJobs})
	s2.Restore(replayed)
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	s2.Drain(ctx2)
	live2 := liveSnapshot(s2)
	jr2.Close()
	jr3, replayed2, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer jr3.Close()
	requireSameJobs(t, "second replay", replayed2, live2)
}

// TestStoreRestoreKeepsMaxJobs: a journal that never recorded
// evictions — one with more terminal jobs than MaxJobs — restores to at
// most MaxJobs jobs, the oldest terminal ones evicted, and the
// evictions are journalled so the next restart agrees.
func TestStoreRestoreKeepsMaxJobs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	jr, _, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 6; i++ {
		spec := sweepJobSpec(uint64(i))
		id := fmt.Sprintf("j%05d-%s", i+1, spec.Hash()[:8])
		ids = append(ids, id)
		if err := jr.Append(
			journalRecord{Op: opSubmit, ID: id, Hash: spec.Hash(), Spec: &spec, Time: time.Now().UTC()},
			journalRecord{Op: opDone, ID: id, Result: json.RawMessage(`{}`), Time: time.Now().UTC()},
		); err != nil {
			t.Fatal(err)
		}
	}
	jr.Close()

	for restart := 0; restart < 2; restart++ {
		jr, restored, err := OpenJournal(path, JournalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if restart > 0 && len(restored) != 3 {
			t.Fatalf("replay after a restart holds %d jobs, want the 3 left after its evictions", len(restored))
		}
		s := NewStore(StoreOptions{Run: blockingRun(nil), Journal: jr, MaxJobs: 3})
		s.Restore(restored)
		got := s.List()
		if len(got) != 3 || got[0].ID != ids[3] || got[2].ID != ids[5] {
			t.Fatalf("restart %d: restored %d jobs starting at %v, want the newest 3", restart, len(got), got)
		}
		jr.Close()
	}
}

// countWrites replaces the journal's write with one that counts calls.
func countWrites(t *testing.T) *int {
	t.Helper()
	n := new(int)
	writeJournal = func(f *os.File, b []byte) (int, error) {
		*n++
		return f.Write(b)
	}
	t.Cleanup(func() { writeJournal = (*os.File).Write })
	return n
}

// TestStoreEvictionSharesSubmitWrite: a submit into a full store
// journals the eviction it causes in the same write (and fsync).
func TestStoreEvictionSharesSubmitWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	jr, _, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer jr.Close()
	release := make(chan struct{})
	s := NewStore(StoreOptions{Run: blockingRun(release), Journal: jr, MaxJobs: 2, MaxConcurrent: 1})
	// The running job holds the only run slot, so the new job stays
	// queued and journals nothing but its submit.
	running, _, err := s.Submit(sweepJobSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, running.ID, StateRunning)
	old, _, err := s.Submit(sweepJobSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	s.Cancel(old.ID)

	writes := countWrites(t)
	before := jr.Stats().TailRecords
	if _, _, err := s.Submit(sweepJobSpec(3)); err != nil {
		t.Fatal(err)
	}
	if *writes != 1 || jr.Stats().TailRecords != before+2 {
		t.Fatalf("submit into a full store: %d writes, %d records; want 1 write of evict+submit", *writes, jr.Stats().TailRecords-before)
	}
	if _, ok := s.Get(old.ID); ok {
		t.Fatal("the cancelled job was not evicted")
	}
	close(release)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestJournalShortWriteKeepsNextRecord: an Append whose write fails
// part-way leaves a record prefix in the file; the next acknowledged
// record must still start on its own line and survive replay.
func TestJournalShortWriteKeepsNextRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	jr, _, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(seed uint64, id string) error {
		spec := sweepJobSpec(seed)
		return jr.Append(journalRecord{Op: opSubmit, ID: id, Hash: spec.Hash(), Spec: &spec, Time: time.Now().UTC()})
	}
	writeJournal = func(f *os.File, b []byte) (int, error) {
		n, _ := f.Write(b[:len(b)/2])
		return n, io.ErrShortWrite
	}
	t.Cleanup(func() { writeJournal = (*os.File).Write })
	if err := submit(1, "j00001-aaaaaaaa"); err == nil {
		t.Fatal("torn append reported success")
	}
	writeJournal = (*os.File).Write
	if err := submit(2, "j00002-bbbbbbbb"); err != nil {
		t.Fatal(err)
	}
	if err := submit(3, "j00003-cccccccc"); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, path); got != jr.Stats().TailBytes {
		t.Errorf("journal file %d bytes, stats say %d", got, jr.Stats().TailBytes)
	}
	jr.Close()

	_, restored, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 2 || restored[0].ID != "j00002-bbbbbbbb" || restored[1].ID != "j00003-cccccccc" {
		t.Fatalf("restored %+v, want both acknowledged submits", restored)
	}
}

// TestJournalAppendAfterTornLine: a crash tears the final line; the
// restarted process's first record must not be glued onto it.
func TestJournalAppendAfterTornLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.jsonl")
	if err := os.WriteFile(path, []byte(`{"op":"submit","seq":1,"id":"j00001-aaaa`), 0o644); err != nil {
		t.Fatal(err)
	}
	jr, restored, err := OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 0 {
		t.Fatalf("torn submit restored as %+v", restored)
	}
	spec := sweepJobSpec(2)
	if err := jr.Append(journalRecord{Op: opSubmit, ID: "j00002-bbbbbbbb", Hash: spec.Hash(), Spec: &spec, Time: time.Now().UTC()}); err != nil {
		t.Fatal(err)
	}
	jr.Close()

	_, restored, err = OpenJournal(path, JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 || restored[0].ID != "j00002-bbbbbbbb" {
		t.Fatalf("restored %+v, want the record appended after the torn line", restored)
	}
}
