package dist

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Journal is the append-only job log: one JSON record per line, one
// line per job state transition (plus one per completed shard, so a
// restarted coordinator re-issues only unacknowledged shards).
// Replaying it reconstructs the job store after a crash — finished
// jobs come back with their results, unfinished ones re-enter the run
// queue with their already-completed shards pre-merged. Appends are
// synchronous and line-atomic; a torn final line (crash mid-write) is
// skipped on replay, and the next record never shares its line: when
// the file does not end on a newline — a torn line left by a crash, or
// the prefix a failed write left behind — the next Append starts with
// one.
//
// Long-lived daemons do not replay unbounded logs: Compact writes the
// full store state to a snapshot file next to the journal
// (<path>.snap, atomically via temp-file + rename) and truncates the
// journal, so recovery reads the snapshot plus a bounded tail. Every
// record carries a monotonic sequence number; replay drops tail
// records at or below the snapshot's sequence, which makes the
// crash window between snapshot rename and journal truncation
// harmless — stale records (including drain re-queues of jobs that
// later finished) are deduped instead of re-applied.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	path string
	// seq is the last assigned record sequence number. Sequences are
	// monotonic across compactions (a snapshot remembers the sequence
	// frontier it captured).
	seq int64

	lockPath string

	tailRecords int
	tailBytes   int64
	snapBytes   int64
	snapTime    time.Time

	// appendErrors counts failed Appends; lossy is set by a failed
	// Append or Compact and cleared by the next Compact that succeeds
	// (the snapshot then holds everything the failed writes would have).
	appendErrors int64
	lossy        bool
	// torn is set while the file does not end on a newline.
	torn bool
}

// writeJournal writes journal bytes; tests replace it to tear a write.
var writeJournal = (*os.File).Write

// Journal operations. submit carries the spec; done/failed/cancelled
// are terminal; requeue marks a job interrupted by a draining
// shutdown, to be resumed by the next process; start records a run
// incarnation (epoch bump); shard persists one completed shard's
// partial aggregates so a restarted coordinator skips it; evict drops
// a terminal job to keep the store within MaxJobs.
const (
	opSubmit    = "submit"
	opDone      = "done"
	opFailed    = "failed"
	opCancelled = "cancelled"
	opRequeue   = "requeue"
	opStart     = "start"
	opShard     = "shard"
	opEvict     = "evict"
)

type journalRecord struct {
	Op string `json:"op"`
	// Seq is the monotonic record sequence, assigned by Append.
	Seq    int64           `json:"seq,omitempty"`
	ID     string          `json:"id"`
	Hash   string          `json:"hash,omitempty"`
	Spec   *JobSpec        `json:"spec,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
	// Epoch is the job's run incarnation (start and shard records).
	Epoch int `json:"epoch,omitempty"`
	// Start/End/Units carry one completed shard's unit range and its
	// marshalled ShardResponse (shard records).
	Start int             `json:"start,omitempty"`
	End   int             `json:"end,omitempty"`
	Units json.RawMessage `json:"units,omitempty"`
	Time  time.Time       `json:"time"`
}

// ShardResult is one completed shard of a job: its unit range, the run
// incarnation that produced it, and the marshalled ShardResponse. The
// store persists these through the journal so a restarted coordinator
// re-issues only the shards nobody acknowledged; results being
// deterministic, a shard computed by any epoch is valid for every
// later one.
type ShardResult struct {
	Start int `json:"start"`
	End   int `json:"end"`
	Epoch int `json:"epoch,omitempty"`
	// Units is the marshalled ShardResponse for the range.
	Units json.RawMessage `json:"units"`
}

// overlapsShards reports whether [start, end) intersects any accepted
// shard — the (jobHash, shard range, epoch) dedupe: a late duplicate
// (a stolen shard's loser, or a previous incarnation's leftover)
// overlaps an accepted one and is dropped.
func overlapsShards(shards []ShardResult, start, end int) bool {
	for _, s := range shards {
		if start < s.End && s.Start < end {
			return true
		}
	}
	return false
}

// RestoredJob is a job's durable state: what the journal records,
// what replay reconstructs and what a snapshot holds, so its fields
// carry JSON tags. The store embeds it in each live job and changes it
// only through apply. State is running only inside a live store or a
// replay; snapshot records a running job as pending.
type RestoredJob struct {
	ID        string          `json:"id"`
	Seq       int             `json:"seq"`
	Hash      string          `json:"hash"`
	Spec      JobSpec         `json:"spec"`
	State     State           `json:"state"`
	Submitted time.Time       `json:"submitted"`
	Finished  time.Time       `json:"finished,omitzero"`
	Error     string          `json:"error,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
	Epoch     int             `json:"epoch,omitempty"`
	Shards    []ShardResult   `json:"shards,omitempty"`
}

// snapshotFile is the on-disk snapshot format: the full store state as
// of sequence Seq. Tail records with Seq at or below it are stale.
type snapshotFile struct {
	Version int           `json:"version"`
	Seq     int64         `json:"seq"`
	Time    time.Time     `json:"time"`
	Jobs    []RestoredJob `json:"jobs"`
}

// JournalStats snapshots the journal's durability posture for metrics:
// how big the live tail is (what a restart must replay), how big and
// old the snapshot is, how many appends have failed, and whether the
// disk still holds every acknowledged job: Durable is false from a
// failed append or compaction until the next compaction succeeds. The
// zero value — no journal — is not durable.
type JournalStats struct {
	Seq           int64     `json:"seq"`
	TailRecords   int       `json:"tailRecords"`
	TailBytes     int64     `json:"tailBytes"`
	SnapshotBytes int64     `json:"snapshotBytes"`
	SnapshotTime  time.Time `json:"snapshotTime,omitzero"`
	AppendErrors  int64     `json:"appendErrors"`
	Durable       bool      `json:"durable"`
}

// JournalOptions configures OpenJournal.
type JournalOptions struct {
	// Takeover acquires the journal even when its lock file names a
	// live process — the standby-coordinator path: a new process
	// adopts the journal and the old incarnation's late appends are
	// fenced off by the lock changing hands. Without it, a lock held
	// by a live pid is an error; a lock left by a dead pid is always
	// reclaimed.
	Takeover bool
}

// ErrJournalLocked is returned when the journal's lock file names a
// live process and Takeover was not requested.
var ErrJournalLocked = errors.New("dist: journal locked by a live process")

// OpenJournal opens (creating if needed) the journal at path, replays
// snapshot + tail, and returns the journal ready for appending plus
// the reconstructed jobs in submission order.
func OpenJournal(path string, opts JournalOptions) (*Journal, []RestoredJob, error) {
	lockPath, err := acquireJournalLock(path, opts.Takeover)
	if err != nil {
		return nil, nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		releaseJournalLock(lockPath)
		return nil, nil, fmt.Errorf("dist: opening journal: %w", err)
	}
	j := &Journal{f: f, path: path, lockPath: lockPath}

	t := newJobTable()
	if snap, ok := readSnapshot(snapshotPath(path)); ok {
		j.seq = snap.Seq
		j.snapTime = snap.Time
		if fi, err := os.Stat(snapshotPath(path)); err == nil {
			j.snapBytes = fi.Size()
		}
		for _, rj := range snap.Jobs {
			t.insert(&job{RestoredJob: rj})
		}
	}
	baseSeq := j.seq

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 64*1024*1024)
	for sc.Scan() {
		j.tailRecords++
		j.tailBytes += int64(len(sc.Bytes())) + 1
		var rec journalRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue // torn or corrupt line
		}
		if rec.Seq != 0 && rec.Seq <= baseSeq {
			// Stale tail: the snapshot already captured this record
			// (crash between snapshot rename and journal truncation).
			continue
		}
		if rec.Seq > j.seq {
			j.seq = rec.Seq
		}
		t.apply(rec)
	}
	end, err := f.Seek(0, io.SeekEnd)
	if err := errors.Join(sc.Err(), err); err != nil {
		f.Close()
		releaseJournalLock(lockPath)
		return nil, nil, fmt.Errorf("dist: replaying journal: %w", err)
	}
	// The scan counted a newline after every line: a count past the
	// end means the last line is torn.
	j.torn, j.tailBytes = j.tailBytes > end, end
	return j, t.snapshot(), nil
}

// jobTable is the set of jobs a journal describes, in submission
// order. The live store and replay both change it only through apply,
// so a restarted store holds exactly the jobs the live one held.
type jobTable struct {
	jobs   map[string]*job
	order  []string          // submission order, for eviction
	byHash map[string]string // spec hash → newest job id
}

func newJobTable() jobTable {
	return jobTable{jobs: make(map[string]*job), byHash: make(map[string]string)}
}

// insert adds a job unless its id is already present.
func (t *jobTable) insert(j *job) bool {
	if _, ok := t.jobs[j.ID]; ok {
		return false
	}
	t.jobs[j.ID] = j
	t.order = append(t.order, j.ID)
	t.byHash[j.Hash] = j.ID
	return true
}

// apply folds one record into the job it names: a submit adds the job,
// an evict removes it, every other record changes it in place. It
// reports whether the record took effect.
func (t *jobTable) apply(rec journalRecord) bool {
	j := t.jobs[rec.ID]
	if j == nil {
		if rec.Op != opSubmit {
			return false
		}
		j = &job{}
	}
	if !j.apply(rec) {
		return false
	}
	switch rec.Op {
	case opSubmit:
		t.insert(j)
	case opEvict:
		delete(t.jobs, j.ID)
		if t.byHash[j.Hash] == j.ID {
			delete(t.byHash, j.Hash)
		}
		t.order = slices.DeleteFunc(t.order, func(id string) bool { return id == j.ID })
	}
	return true
}

// snapshot lists every job's durable state in submission order, as a
// snapshot or a restart sees it: a run dies with its process, so a
// running job is recorded as pending.
func (t *jobTable) snapshot() []RestoredJob {
	out := make([]RestoredJob, 0, len(t.order))
	for _, id := range t.order {
		rj := t.jobs[id].RestoredJob
		if rj.State == StateRunning {
			rj.State = StatePending
		}
		out = append(out, rj)
	}
	return out
}

// apply is the job state machine: it folds one journal record into the
// job and reports whether the record changed it. The store changes a
// job only through it and journals only the records it accepts;
// replay folds the journal through it. Every case is idempotent:
// replaying a record twice (or on top of a snapshot that already holds
// its effect) changes nothing, a terminal job takes no record but its
// eviction, and a stale drain re-queue never resurrects it.
func (j *RestoredJob) apply(rec journalRecord) bool {
	switch rec.Op {
	case opSubmit:
		if j.ID != "" || rec.Spec == nil {
			return false // duplicate submit replay
		}
		*j = RestoredJob{
			ID:        rec.ID,
			Seq:       seqOf(rec.ID),
			Hash:      rec.Hash,
			Spec:      *rec.Spec,
			State:     StatePending,
			Submitted: rec.Time,
		}
		return true
	case opEvict:
		return j.State.Terminal()
	}
	if j.State.Terminal() {
		return false
	}
	switch rec.Op {
	case opStart:
		// A new incarnation; a restart resumes a job that was running
		// when its process died, so running jobs take a start too.
		if rec.Epoch <= j.Epoch {
			return false
		}
		j.State, j.Epoch = StateRunning, rec.Epoch
	case opShard:
		if rec.End <= rec.Start || overlapsShards(j.Shards, rec.Start, rec.End) {
			return false // late duplicate or malformed shard
		}
		j.Shards = append(j.Shards, ShardResult{Start: rec.Start, End: rec.End, Epoch: rec.Epoch, Units: rec.Units})
	case opDone:
		j.State, j.Result = StateDone, rec.Result
	case opFailed:
		j.State, j.Error = StateFailed, rec.Error
	case opCancelled:
		j.State = StateCancelled
	case opRequeue:
		// A drain re-queue hands a running job to the next process.
		if j.State != StateRunning {
			return false
		}
		j.State = StatePending
	default:
		return false
	}
	if j.State.Terminal() {
		j.Finished = rec.Time
		j.Shards = nil // the terminal record supersedes partial results
	}
	return true
}

// Append writes records in one write and syncs them to disk before
// returning, so an acknowledged submit survives an immediate crash.
// Each record's monotonic sequence number is assigned here; a number
// is never reused, even after a failed write.
func (j *Journal) Append(recs ...journalRecord) (err error) {
	if len(recs) == 0 {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	defer func() {
		if err != nil {
			j.appendErrors++
			j.lossy = true
		}
	}()
	var b []byte
	if j.torn {
		b = append(b, '\n')
	}
	for _, rec := range recs {
		j.seq++
		rec.Seq = j.seq
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if b == nil {
			b = line // one record, the common case: no copy
		} else {
			b = append(b, line...)
		}
		b = append(b, '\n')
	}
	n, err := writeJournal(j.f, b)
	j.tailBytes += int64(n)
	if n > 0 {
		j.torn = b[n-1] != '\n'
	}
	if err != nil {
		return err
	}
	j.tailRecords += len(recs)
	return j.f.Sync()
}

// TailRecords reports how many records the live journal holds — what a
// restart would replay on top of the snapshot. The store compacts when
// this crosses its threshold.
func (j *Journal) TailRecords() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tailRecords
}

// Stats snapshots the journal's size/age counters.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalStats{
		Seq:           j.seq,
		TailRecords:   j.tailRecords,
		TailBytes:     j.tailBytes,
		SnapshotBytes: j.snapBytes,
		SnapshotTime:  j.snapTime,
		AppendErrors:  j.appendErrors,
		Durable:       !j.lossy,
	}
}

// Compact checkpoints the given store state (the caller snapshots its
// jobs under its own lock) and truncates the journal: the snapshot is
// written to <path>.snap via temp-file + rename (atomic on POSIX), so
// a crash leaves either the old snapshot or the new one, never a torn
// file; only after the rename does the journal truncate. A crash
// between the two steps replays the new snapshot plus a stale tail,
// which the sequence-number dedupe ignores.
func (j *Journal) Compact(jobs []RestoredJob) (err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	defer func() { j.lossy = err != nil }()
	snap := snapshotFile{Version: 1, Seq: j.seq, Time: time.Now().UTC(), Jobs: jobs}
	b, err := json.Marshal(&snap)
	if err != nil {
		return fmt.Errorf("dist: marshalling snapshot: %w", err)
	}
	final := snapshotPath(j.path)
	tmp := final + ".tmp"
	tf, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("dist: writing snapshot: %w", err)
	}
	if _, err := tf.Write(b); err != nil {
		tf.Close()
		os.Remove(tmp)
		return fmt.Errorf("dist: writing snapshot: %w", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		os.Remove(tmp)
		return fmt.Errorf("dist: syncing snapshot: %w", err)
	}
	if err := tf.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("dist: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("dist: publishing snapshot: %w", err)
	}
	syncDir(filepath.Dir(final))

	// The snapshot now covers every journalled record: truncate.
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("dist: truncating journal: %w", err)
	}
	if _, err := j.f.Seek(0, 0); err != nil {
		return fmt.Errorf("dist: rewinding journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("dist: syncing truncated journal: %w", err)
	}
	j.tailRecords, j.tailBytes, j.torn = 0, 0, false
	j.snapBytes = int64(len(b))
	j.snapTime = snap.Time
	return nil
}

// Close closes the underlying file and releases the journal lock.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	err := j.f.Close()
	releaseJournalLock(j.lockPath)
	return err
}

// snapshotPath is where a journal's snapshot lives.
func snapshotPath(journalPath string) string { return journalPath + ".snap" }

// readSnapshot loads and validates a snapshot file. A missing or
// unreadable snapshot degrades to a full-journal replay rather than an
// error: the write path is atomic, so a bad snapshot means external
// corruption, and the journal tail is still the better-than-nothing
// truth.
func readSnapshot(path string) (snapshotFile, bool) {
	b, err := os.ReadFile(path)
	if err != nil {
		return snapshotFile{}, false
	}
	var snap snapshotFile
	if err := json.Unmarshal(b, &snap); err != nil || snap.Version != 1 {
		return snapshotFile{}, false
	}
	return snap, true
}

// syncDir fsyncs a directory so a rename survives power loss; best
// effort (some filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// acquireJournalLock fences the journal against two live processes
// appending at once: the lock file names the owning pid. A lock whose
// pid is dead is reclaimed (the common crash-restart path); a live
// pid's lock is an error unless takeover was requested (the standby
// path — the operator asserts the old coordinator is gone or fenced).
func acquireJournalLock(path string, takeover bool) (string, error) {
	lockPath := path + ".lock"
	if b, err := os.ReadFile(lockPath); err == nil {
		pid, perr := strconv.Atoi(strings.TrimSpace(string(b)))
		if perr == nil && pid > 0 && pid != os.Getpid() && pidAlive(pid) && !takeover {
			return "", fmt.Errorf("%w: pid %d holds %s (use takeover to adopt the journal)", ErrJournalLocked, pid, lockPath)
		}
	}
	if err := os.WriteFile(lockPath, []byte(strconv.Itoa(os.Getpid())+"\n"), 0o644); err != nil {
		return "", fmt.Errorf("dist: writing journal lock: %w", err)
	}
	return lockPath, nil
}

func releaseJournalLock(lockPath string) {
	if lockPath != "" {
		os.Remove(lockPath)
	}
}

// pidAlive reports whether a process with the pid exists (signal 0).
func pidAlive(pid int) bool {
	p, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	return p.Signal(syscall.Signal(0)) == nil
}

// seqOf recovers the sequence number from a job id ("j00042-ab12cd34").
func seqOf(id string) int {
	var seq int
	fmt.Sscanf(id, "j%d-", &seq)
	return seq
}
