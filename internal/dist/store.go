package dist

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"
)

// State is a job's lifecycle state.
type State string

const (
	StatePending   State = "pending"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// ErrStoreFull is returned by Submit when the store holds MaxJobs jobs
// and none is terminal (evictable). The HTTP layer maps it to 429.
var ErrStoreFull = errors.New("dist: job store full")

// ErrNotAccepting is returned by Submit after StopAccepting — the
// coordinator is draining. The HTTP layer maps it to 503.
var ErrNotAccepting = errors.New("dist: not accepting jobs")

// JobRun is everything a RunFunc needs to execute one incarnation of a
// job: its identity and epoch, shard results persisted by previous
// incarnations (the runner pre-merges them and computes only the
// gaps), a progress sink, and a shard-completion sink that journals
// each finished shard so the *next* incarnation can skip it too.
type JobRun struct {
	ID    string
	Epoch int
	Spec  JobSpec
	// Shards holds results journalled by previous incarnations of this
	// job, each covering a distinct unit range.
	Shards []ShardResult
	// Progress reports cumulative finished units (merged + computed).
	Progress func(done, total int)
	// CompleteShard persists one finished shard through the journal.
	// It reports false when the shard was a late duplicate — its range
	// already covered by an accepted result (a stolen shard's loser or
	// a previous incarnation racing this one) — and was dropped.
	CompleteShard func(res ShardResult) bool
}

// RunFunc executes one job incarnation and returns its result
// (marshalled to JSON for the job record).
type RunFunc func(ctx context.Context, run JobRun) (any, error)

// job is the store's record of one job: its durable state, which
// changes only through Store.commitLocked, and what dies with the
// process.
type job struct {
	RestoredJob
	started   time.Time
	unitsDone int
	unitsTot  int
	cancel    context.CancelFunc
	// requeued marks a job a draining shutdown handed to the next
	// process: its interrupted run leaves it pending, not cancelled or
	// failed, and a queued run does not start.
	requeued bool
}

// JobView is the JSON snapshot of a job, as served by GET /v1/jobs.
type JobView struct {
	ID        string     `json:"id"`
	Kind      JobKind    `json:"kind"`
	SpecHash  string     `json:"specHash"`
	State     State      `json:"state"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	// UnitsDone/UnitsTotal is shard-merge progress: how many units of
	// the campaign's deterministic enumeration have been computed and
	// folded into the partial aggregate.
	UnitsDone  int `json:"unitsDone"`
	UnitsTotal int `json:"unitsTotal"`
	// Epoch counts run incarnations (crash-restart resumes bump it).
	Epoch int `json:"epoch,omitempty"`
	// ShardsDone counts journalled shard results for the current run.
	ShardsDone int             `json:"shardsDone,omitempty"`
	Error      string          `json:"error,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
	Spec       JobSpec         `json:"spec"`
}

func (j *job) view() JobView {
	v := JobView{
		ID:         j.ID,
		Kind:       j.Spec.Kind,
		SpecHash:   j.Hash,
		State:      j.State,
		Submitted:  j.Submitted,
		UnitsDone:  j.unitsDone,
		UnitsTotal: j.unitsTot,
		Epoch:      j.Epoch,
		ShardsDone: len(j.Shards),
		Error:      j.Error,
		Result:     j.Result,
		Spec:       j.Spec,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.Finished.IsZero() {
		t := j.Finished
		v.Finished = &t
	}
	return v
}

// StoreOptions configures a Store.
type StoreOptions struct {
	// Run executes submitted specs. Required.
	Run RunFunc
	// MaxConcurrent bounds jobs executing at once; default 1 (a job
	// already fans out internally — across shard workers or the local
	// pool — so the default keeps jobs from fighting for the machine).
	MaxConcurrent int
	// MaxJobs bounds retained job records; default 256. Oldest
	// terminal jobs are evicted to make room; if every record is live
	// Submit returns ErrStoreFull.
	MaxJobs int
	// Journal, when non-nil, persists the job log for crash resume.
	Journal *Journal
	// SnapshotEvery compacts the journal once its tail reaches this
	// many records: the store state is checkpointed to <journal>.snap
	// and the journal truncated, bounding restart replay. Default 512;
	// negative disables compaction.
	SnapshotEvery int
	// Logf, when set, receives journal-write diagnostics.
	Logf func(format string, args ...any)
}

// Store owns asynchronous jobs: it validates nothing (callers validate
// specs first), dedupes by canonical spec hash, executes with bounded
// concurrency, snapshots progress, cancels, journals, and drains.
type Store struct {
	run           RunFunc
	maxJobs       int
	journal       *Journal
	snapshotEvery int
	logf          func(string, ...any)

	mu sync.Mutex
	// jobTable holds the jobs; it changes only through commitLocked.
	jobTable
	seq        int
	accepting  bool
	lateShards int64
	wg         sync.WaitGroup
	sem        chan struct{}
}

// NewStore builds a Store. Call Restore to replay a journal's jobs.
func NewStore(opts StoreOptions) *Store {
	if opts.Run == nil {
		panic("dist: StoreOptions.Run is required")
	}
	conc := opts.MaxConcurrent
	if conc <= 0 {
		conc = 1
	}
	maxJobs := opts.MaxJobs
	if maxJobs <= 0 {
		maxJobs = 256
	}
	snapEvery := opts.SnapshotEvery
	if snapEvery == 0 {
		snapEvery = 512
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Store{
		run:           opts.Run,
		maxJobs:       maxJobs,
		journal:       opts.Journal,
		snapshotEvery: snapEvery,
		logf:          logf,
		jobTable:      newJobTable(),
		accepting:     true,
		sem:           make(chan struct{}, conc),
	}
}

// Submit registers a normalized, validated spec and starts it in the
// background. Identical specs (same canonical hash) dedupe: if a
// pending, running or done job already covers the spec, its view is
// returned with created=false — results being deterministic, a done
// job is a content-addressed cache hit. Failed and cancelled jobs do
// not block resubmission.
func (s *Store) Submit(spec JobSpec) (JobView, bool, error) {
	hash := spec.Hash()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.accepting {
		return JobView{}, false, ErrNotAccepting
	}
	if j := s.jobs[s.byHash[hash]]; j != nil && j.State != StateFailed && j.State != StateCancelled {
		return j.view(), false, nil
	}
	recs := s.evictionsLocked(1)
	if len(s.jobs)-len(recs) >= s.maxJobs {
		return JobView{}, false, ErrStoreFull
	}
	s.seq++
	id := fmt.Sprintf("j%05d-%s", s.seq, hash[:8])
	// The evictions go out in the submit's write and fsync.
	s.commitLocked(append(recs, journalRecord{Op: opSubmit, ID: id, Hash: hash, Spec: &spec, Time: time.Now().UTC()})...)
	j := s.jobs[id]
	s.startLocked(j)
	return j.view(), true, nil
}

// evictionsLocked returns evict records for the oldest terminal jobs:
// as many as room more jobs need to fit in MaxJobs, or as many as
// there are.
func (s *Store) evictionsLocked(room int) []journalRecord {
	var recs []journalRecord
	for _, id := range s.order {
		if len(s.jobs)+room-len(recs) <= s.maxJobs {
			break
		}
		if s.jobs[id].State.Terminal() {
			recs = append(recs, journalRecord{Op: opEvict, ID: id, Time: time.Now().UTC()})
		}
	}
	return recs
}

// commitLocked is the one way a job's durable state changes: it
// applies each record with the code replay uses (jobTable.apply) and
// journals the records that took effect, all in one write and one
// fsync. It reports whether every record took effect.
func (s *Store) commitLocked(recs ...journalRecord) bool {
	applied := recs[:0]
	for _, rec := range recs {
		if s.apply(rec) {
			applied = append(applied, rec)
		}
	}
	s.append(applied...)
	return len(applied) == len(recs)
}

// startLocked launches the job's runner goroutine.
func (s *Store) startLocked(j *job) {
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	s.wg.Add(1)
	go s.runJob(ctx, j)
}

func (s *Store) runJob(ctx context.Context, j *job) {
	defer s.wg.Done()
	// Bounded execution: wait for a slot, bailing out on cancel.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	case <-ctx.Done():
		s.finishJob(j, nil, ctx.Err())
		return
	}
	s.mu.Lock()
	// New incarnation: bump and journal the epoch so results from the
	// previous run (or process) are attributable. A job cancelled or
	// re-queued while it waited does not start.
	now := time.Now().UTC()
	if j.requeued || !s.commitLocked(journalRecord{Op: opStart, ID: j.ID, Epoch: j.Epoch + 1, Time: now}) {
		s.mu.Unlock()
		return
	}
	j.started = now
	run := JobRun{
		ID:     j.ID,
		Epoch:  j.Epoch,
		Spec:   j.Spec,
		Shards: append([]ShardResult(nil), j.Shards...),
		Progress: func(done, total int) {
			s.mu.Lock()
			j.unitsDone, j.unitsTot = done, total
			s.mu.Unlock()
		},
		CompleteShard: func(res ShardResult) bool { return s.completeShard(j, res) },
	}
	s.mu.Unlock()

	result, err := s.run(ctx, run)
	s.finishJob(j, result, err)
}

// completeShard accepts one finished shard: the first result for a
// range wins, and apply refuses the rest — losers of a steal race and
// stragglers from previous incarnations — which count as late.
// Journalling the winner may trigger compaction.
func (s *Store) completeShard(j *job, res ShardResult) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	ok := s.commitLocked(journalRecord{
		Op: opShard, ID: j.ID, Epoch: res.Epoch,
		Start: res.Start, End: res.End, Units: res.Units,
		Time: time.Now().UTC(),
	})
	if !ok {
		s.lateShards++
	}
	return ok
}

// finishJob records the run's outcome. An interrupted run resolves to
// cancelled — or, when a draining shutdown re-queued the job for the
// next process, leaves it pending with its journalled shards intact so
// the next process computes only the gaps.
func (s *Store) finishJob(j *job, result any, err error) {
	rec := journalRecord{Op: opDone, ID: j.ID, Time: time.Now().UTC()}
	switch {
	case err == nil:
		if rec.Result, err = json.Marshal(result); err != nil {
			rec.Op, rec.Error = opFailed, fmt.Sprintf("marshalling result: %v", err)
		}
	case errors.Is(err, context.Canceled):
		rec.Op = opCancelled
	default:
		rec.Op, rec.Error = opFailed, err.Error()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.requeued && rec.Op != opDone {
		j.started, j.unitsDone = time.Time{}, 0
		return
	}
	if s.commitLocked(rec) && rec.Op == opDone {
		j.unitsDone = j.unitsTot
	}
}

// Get snapshots one job.
func (s *Store) Get(id string) (JobView, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return j.view(), true
}

// List snapshots every job in submission order.
func (s *Store) List() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.jobs))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			out = append(out, j.view())
		}
	}
	return out
}

// Cancel requests cancellation. Pending jobs cancel immediately;
// running jobs cancel via their context (state settles when the runner
// observes it). Returns the post-request view.
func (s *Store) Cancel(id string) (JobView, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return JobView{}, false
	}
	if j.State == StatePending {
		s.commitLocked(journalRecord{Op: opCancelled, ID: id, Time: time.Now().UTC()})
	}
	v, cancel := j.view(), j.cancel
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return v, true
}

// Counts reports jobs per state, for metrics.
func (s *Store) Counts() map[State]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[State]int, 5)
	for _, j := range s.jobs {
		out[j.State]++
	}
	return out
}

// LateShards reports how many shard results were dropped as late
// duplicates (steal-race losers, previous-incarnation stragglers).
func (s *Store) LateShards() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lateShards
}

// StopAccepting flips the store to draining: Submit returns
// ErrNotAccepting from here on.
func (s *Store) StopAccepting() {
	s.mu.Lock()
	s.accepting = false
	s.mu.Unlock()
}

// Drain stops accepting and waits for in-flight jobs. If ctx expires
// first, the stragglers are re-queued to the journal — so the next
// process resumes them — and then interrupted. A drained store never
// loses a submitted job: it is either finished (journalled terminal)
// or left pending in the journal.
func (s *Store) Drain(ctx context.Context) error {
	s.StopAccepting()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	// Requeue and interrupt the stragglers.
	s.mu.Lock()
	var requeues []journalRecord
	var cancels []context.CancelFunc
	for _, id := range s.order {
		if j := s.jobs[id]; !j.State.Terminal() {
			j.requeued = true
			requeues = append(requeues, journalRecord{Op: opRequeue, ID: id, Time: time.Now().UTC()})
			if j.cancel != nil {
				cancels = append(cancels, j.cancel)
			}
		}
	}
	s.commitLocked(requeues...)
	s.mu.Unlock()
	for _, cancel := range cancels {
		cancel()
	}
	<-done
	return ctx.Err()
}

// Restore loads replayed jobs into the store: terminal jobs come back
// as records, unfinished ones re-enter the run queue carrying the
// shard results their previous incarnation already journalled. The
// oldest terminal jobs past MaxJobs are evicted as Submit would have
// (a journal written before evictions were journalled holds them).
// Call once, before serving traffic.
func (s *Store) Restore(entries []RestoredJob) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var pending []*job
	for _, e := range entries {
		j := &job{RestoredJob: e}
		if !s.insert(j) {
			continue
		}
		if j.State == StateDone {
			j.unitsDone, j.unitsTot = 1, 1
		}
		if j.State == StatePending {
			pending = append(pending, j)
		}
		s.seq = max(s.seq, e.Seq) // new ids never collide with restored ones
	}
	s.commitLocked(s.evictionsLocked(0)...)
	for _, j := range pending {
		s.startLocked(j)
	}
}

// append writes journal records, logging (not failing) on error: a
// full disk should degrade durability, not reject sweeps. When the
// tail crosses the compaction threshold, the store checkpoints itself
// and truncates the journal — all appends happen under s.mu, so the
// snapshot is a consistent cut.
func (s *Store) append(recs ...journalRecord) {
	if s.journal == nil {
		return
	}
	if err := s.journal.Append(recs...); err != nil {
		s.logf("dist: journal append (%s %s): %v", recs[len(recs)-1].Op, recs[len(recs)-1].ID, err)
	}
	if s.snapshotEvery > 0 && s.journal.TailRecords() >= s.snapshotEvery {
		s.compactLocked()
	}
}

// compactLocked checkpoints every job to the snapshot file and
// truncates the journal. Caller holds s.mu.
func (s *Store) compactLocked() {
	if err := s.journal.Compact(s.snapshot()); err != nil {
		s.logf("dist: journal compact: %v", err)
	}
}
