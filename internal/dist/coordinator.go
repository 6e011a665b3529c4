package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"budgetwf/internal/exp"
	"budgetwf/internal/obs"
)

// Coordinator decomposes a campaign into deterministic shards and
// farms them out to workers over HTTP. The zero value (no Workers, no
// Members) executes everything locally through the same shard path, so
// results are byte-for-byte independent of the fleet size — including
// zero.
//
// The fleet is the static Workers list plus, when Members is set, the
// live dynamically-registered workers it reports — consulted afresh on
// every dispatch, so workers joining mid-sweep receive shards and
// workers leaving stop receiving them.
//
// Failure policy, in escalation order: a failed or slow worker is
// benched with capped jittered exponential backoff (a 429 benches it
// for exactly its Retry-After); the failed shard is split in half when
// it spans more than one unit, so its work redistributes across the
// surviving fleet; a shard in flight longer than StealAfter — or on a
// worker that dropped out of the live fleet — is speculatively
// re-issued to another worker (work stealing; first result wins, the
// loser is dropped by unit-coverage dedupe); and a shard that exhausts
// MaxAttempts runs on the coordinator itself. The local fallback is
// what closes the guarantee that no failure mode loses a shard.
type Coordinator struct {
	// Workers is the base URLs of statically configured shard workers
	// ("http://host:9090"). Empty with nil Members means run
	// everything locally.
	Workers []string
	// Members, when non-nil, reports the live dynamically-registered
	// fleet (typically Registry.Live). It is consulted on every
	// dispatch and merged with Workers.
	Members func() []string
	// Client issues the shard requests; nil uses http.DefaultClient.
	Client *http.Client
	// UnitsPerShard sets the shard granularity; default sizes shards
	// so each worker receives about four.
	UnitsPerShard int
	// MaxAttempts is the remote attempts per shard before the local
	// fallback; default 3.
	MaxAttempts int
	// RetryBase and RetryCap shape the per-worker backoff bench;
	// defaults 200ms and 10s.
	RetryBase time.Duration
	RetryCap  time.Duration
	// ShardTimeout bounds one remote shard attempt; default 10m.
	ShardTimeout time.Duration
	// StealAfter is how long a dispatched shard may stay in flight
	// before it is speculatively re-issued to another worker; default
	// 30s. Shards on workers that left the live fleet are re-issued
	// immediately.
	StealAfter time.Duration
	// LocalWorkers bounds local execution parallelism (fallback and
	// the no-workers path); 0 means GOMAXPROCS.
	LocalWorkers int
	// Logf, when set, receives retry/split/steal/fallback diagnostics.
	Logf func(format string, args ...any)

	mu    sync.Mutex // guards pick and bench, which every run shares
	pick  int        // round-robin cursor
	bench map[string]benched
	stats counters
}

// counters are the dispatch counters behind Stats.
type counters struct {
	dispatched, requeued, stolen, lateDup, localFB, stitched atomic.Int64
}

// CoordStats counts dispatch events over the coordinator's lifetime,
// for metrics.
type CoordStats struct {
	// Dispatched is remote shard attempts issued.
	Dispatched int64 `json:"dispatched"`
	// Requeued is failed shard attempts fed back into the queue
	// (splits count once).
	Requeued int64 `json:"requeued"`
	// Stolen is speculative re-issues of slow or orphaned shards.
	Stolen int64 `json:"stolen"`
	// LateDuplicates is results dropped because their units were
	// already covered (steal-race losers).
	LateDuplicates int64 `json:"lateDuplicates"`
	// LocalFallbacks is shards that exhausted remote attempts and ran
	// on the coordinator.
	LocalFallbacks int64 `json:"localFallbacks"`
	// SpansStitched is worker-exported trace spans grafted into job
	// traces.
	SpansStitched int64 `json:"spansStitched"`
}

// Stats snapshots the dispatch counters.
func (c *Coordinator) Stats() CoordStats {
	return CoordStats{
		Dispatched:     c.stats.dispatched.Load(),
		Requeued:       c.stats.requeued.Load(),
		Stolen:         c.stats.stolen.Load(),
		LateDuplicates: c.stats.lateDup.Load(),
		LocalFallbacks: c.stats.localFB.Load(),
		SpansStitched:  c.stats.stitched.Load(),
	}
}

// RunOptions attaches observability and resume state to one
// coordinator run.
type RunOptions struct {
	// Span, when non-nil, becomes the parent of one child span per
	// shard attempt.
	Span *obs.Span
	// Progress, when non-nil, is called after each shard completes
	// with cumulative finished units, which strictly increase.
	Progress func(doneUnits, totalUnits int)
	// Completed holds shard results journalled by a previous
	// incarnation of this job: their units are folded into the merge
	// up front and never recomputed. Malformed or overlapping entries
	// are ignored (recomputed), so a corrupt journal degrades to extra
	// work, not a wrong result.
	Completed []ShardResult
	// OnShard, when non-nil, receives every newly accepted shard
	// result (its units marshalled), in acceptance order — the hook
	// the job store uses to journal shard progress. Both callbacks run
	// on Run's goroutine and never after Run returns.
	OnShard func(ShardResult)
	// Epoch tags OnShard results with the run incarnation.
	Epoch int
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

func (c *Coordinator) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 3
}

func (c *Coordinator) retryBase() time.Duration {
	if c.RetryBase > 0 {
		return c.RetryBase
	}
	return 200 * time.Millisecond
}

func (c *Coordinator) retryCap() time.Duration {
	if c.RetryCap > 0 {
		return c.RetryCap
	}
	return 10 * time.Second
}

func (c *Coordinator) shardTimeout() time.Duration {
	if c.ShardTimeout > 0 {
		return c.ShardTimeout
	}
	return 10 * time.Minute
}

func (c *Coordinator) stealAfter() time.Duration {
	if c.StealAfter > 0 {
		return c.StealAfter
	}
	return 30 * time.Second
}

func (c *Coordinator) client() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return http.DefaultClient
}

// fleet is the current dispatch target list: static workers in
// declared order, then live dynamic members not already present.
func (c *Coordinator) fleet() []string {
	out := append([]string(nil), c.Workers...)
	if c.Members == nil {
		return out
	}
	seen := make(map[string]bool, len(out))
	for _, w := range out {
		seen[w] = true
	}
	for _, m := range c.Members() {
		if !seen[m] {
			out = append(out, m)
			seen[m] = true
		}
	}
	return out
}

// backoff is the capped, jittered exponential bench for a worker with
// fails consecutive failures: base·2^(fails-1), capped, with the upper
// half jittered so a fleet of benched workers doesn't thunder back in
// lockstep.
func (c *Coordinator) backoff(fails int) time.Duration {
	d := c.retryBase()
	for i := 1; i < fails; i++ {
		d *= 2
		if d >= c.retryCap() {
			break
		}
	}
	if d > c.retryCap() {
		d = c.retryCap()
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// Run executes the campaign across the fleet and returns its units,
// every cell of the grid exactly once, for the campaign's own Merge —
// which makes the result bit-identical to the single-process run of
// the same spec.
//
// Run is the only goroutine that touches the run's state (runState).
// It places shards on benched-aware round-robin workers (the live
// fleet, re-evaluated every placement) through at most 2×fleet attempt
// goroutines, each making one remote call or one local run and sending
// back one outcome, and it folds the outcomes and a periodic steal tick
// into the state, which answers with retries, splits, speculative
// steals and local fallbacks. Unit coverage is the single source of
// truth: a result is accepted only if none of its units are covered
// yet, so duplicates from steals or previous incarnations can never
// double-merge. Run returns once every unit is covered, or on the
// first unrecoverable error, and only after every attempt goroutine
// has reported.
func (c *Coordinator) Run(ctx context.Context, camp *Campaign, opt RunOptions) ([]exp.Unit, error) {
	st := c.newRunState(camp, opt.Completed)
	if st.done > 0 {
		c.logf("dist: resuming with %d/%d units from journalled shards", st.done, st.total)
		if opt.Progress != nil {
			opt.Progress(st.done, st.total)
		}
	}
	if st.complete() {
		return st.merged, nil
	}

	// No fleet and no membership: run each gap locally as one shard.
	if len(c.Workers) == 0 && c.Members == nil {
		for _, g := range st.gaps() {
			span := opt.Span.Child("shard")
			span.Set(obs.Str("mode", "local"), obs.Int("start", g.start), obs.Int("end", g.end))
			units, err := camp.Run(ctx, c.LocalWorkers, g.start, g.end)
			span.End()
			if err == nil {
				err = c.settle(ctx, st, outcome{sh: shard{start: g.start, end: g.end}, resp: &ShardResponse{Units: units}}, opt)
			}
			if err != nil {
				return nil, err
			}
		}
		return st.merged, nil
	}

	fleet := max(len(c.fleet()), 1)
	perShard := c.UnitsPerShard
	if perShard <= 0 {
		perShard = (st.total + 4*fleet - 1) / (4 * fleet)
	}
	st.shardGaps(max(perShard, 1))

	// runCtx cancels lingering attempts the moment the run settles
	// (complete or failed), so a hung speculative call can't hold Run
	// open for a full ShardTimeout.
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	// One slot per attempt goroutine: no send blocks, even if Run
	// stops receiving.
	outcomes := make(chan outcome, 2*fleet)
	tick := time.NewTicker(min(max(c.stealAfter()/8, 50*time.Millisecond), time.Second))
	defer tick.Stop()
	cancelled := ctx.Done()
	var err error
	for running := 0; ; {
		for err == nil && running < 2*fleet {
			sh, local, ok := st.next()
			if !ok {
				break
			}
			c.launch(runCtx, camp, st, sh, local, opt, outcomes)
			running++
		}
		if running == 0 {
			break
		}
		select {
		case o := <-outcomes:
			running--
			if err == nil {
				err = c.settle(ctx, st, o, opt)
			}
			if err != nil || st.complete() {
				cancel()
			}
		case now := <-tick.C:
			// Speculatively re-issue shards stuck in flight past
			// StealAfter, and at once those whose worker left the live
			// fleet (heartbeat TTL expiry).
			if err == nil {
				for _, sh := range st.steal(now, c.fleet()) {
					c.logf("dist: stealing shard [%d,%d) from %s", sh.start, sh.end, sh.avoid)
				}
			}
		case <-cancelled:
			cancelled, err = nil, ctx.Err()
		}
	}
	if err != nil {
		return nil, err
	}
	return st.merged, nil
}

// outcome is what one attempt goroutine reports to Run.
type outcome struct {
	id     int64 // the attempt's flight; 0 when it ran locally or found no worker
	sh     shard
	worker string // "" when the attempt ran locally or found no worker
	local  bool
	// resp is the attempt's units; nil with a nil err means no live
	// worker was there to place the shard on.
	resp       *ShardResponse
	retryAfter time.Duration
	err        error
	span       *obs.Span
}

// launch starts the attempt goroutine for sh, which sends exactly one
// outcome on out; Run receives every one before it returns.
func (c *Coordinator) launch(ctx context.Context, camp *Campaign, st *runState, sh shard, local bool, opt RunOptions, out chan<- outcome) {
	if local {
		c.logf("dist: shard [%d,%d) exhausted %d remote attempts; running locally", sh.start, sh.end, sh.attempts)
		go func() {
			span := opt.Span.Child("shard")
			span.Set(obs.Str("mode", "fallback"), obs.Int("start", sh.start), obs.Int("end", sh.end))
			units, err := camp.Run(ctx, c.LocalWorkers, sh.start, sh.end)
			span.End()
			out <- outcome{sh: sh, local: true, resp: &ShardResponse{Units: units}, err: err, span: span}
		}()
		return
	}
	fleet := c.fleet()
	if len(fleet) == 0 {
		// No live workers right now: wait a beat for one to register.
		go func() { out <- outcome{sh: sh, err: sleepCtx(ctx, 250*time.Millisecond)} }()
		return
	}
	now := time.Now()
	worker, wait := c.pickWorker(fleet, sh.avoid, now)
	id := st.dispatched(sh, worker, now.Add(wait))
	go func() { out <- c.attempt(ctx, camp, id, sh, worker, wait, opt) }()
}

// attempt is one remote attempt of sh on worker: it waits out the
// fleet's bench, then makes one POST /v1/shards and checks that the
// answer covers the range, under a dispatch span the worker's own
// subtree stitches into.
func (c *Coordinator) attempt(ctx context.Context, camp *Campaign, id int64, sh shard, worker string, wait time.Duration, opt RunOptions) outcome {
	o := outcome{id: id, sh: sh, worker: worker}
	if wait > 0 {
		// Whole fleet benched: wait for the first worker to come back.
		if o.err = sleepCtx(ctx, wait); o.err != nil {
			return o
		}
	}
	span := opt.Span.Child("shard")
	o.span = span
	span.Set(obs.Str("worker", worker),
		obs.Int("start", sh.start), obs.Int("end", sh.end), obs.Int("attempt", sh.attempts+1))
	if opt.Epoch != 0 {
		span.Set(obs.Int("epoch", opt.Epoch))
	}
	if sh.attempts > 0 {
		span.Set(obs.Bool("retry", true))
	}
	if sh.speculative {
		span.Set(obs.Bool("speculative", true), obs.Bool("stolen", true))
	}
	// Ask the worker for its compute subtree and hand it our span
	// context, so the response stitches under this dispatch span.
	req := ShardRequest{JobSpec: camp.Spec, Start: sh.start, End: sh.end, Trace: span.Enabled()}
	sctx := span.SpanContext()
	sctx.Epoch = opt.Epoch
	resp, retryAfter, err := c.callWorker(ctx, worker, &req, sctx)
	if err == nil {
		if err = camp.covers(resp.Units, sh.start, sh.end); err != nil {
			err = fmt.Errorf("dist: worker %s: %w", worker, err)
		}
	}
	if err != nil {
		span.Set(obs.Str("error", err.Error()))
		span.End()
		o.err, o.retryAfter = err, retryAfter
		return o
	}
	if resp.Trace != nil {
		// Stitch the worker's subtree under the still-open dispatch
		// span (its envelope is the clock-alignment anchor), then strip
		// it: the merge and the journal carry payload only.
		c.stats.stitched.Add(int64(span.GraftRemote(resp.Trace, worker)))
		resp.Trace = nil
	}
	span.End()
	o.resp = resp
	return o
}

// settle folds one outcome into the run on Run's goroutine, the only
// place Progress and OnShard are called — so progress never goes
// backwards and OnShard sees acceptance order. It returns the error
// that ends the run, if any.
func (c *Coordinator) settle(ctx context.Context, st *runState, o outcome, opt RunOptions) error {
	if o.err != nil {
		if st.complete() {
			return nil // a straggler cancelled by the run's completion
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if o.local {
			return fmt.Errorf("dist: local fallback for shard [%d,%d): %w", o.sh.start, o.sh.end, o.err)
		}
		if o.sh.speculative {
			c.logf("dist: speculative shard [%d,%d) on %s failed: %v", o.sh.start, o.sh.end, o.worker, o.err)
		} else {
			c.benchWorker(o.worker, o.retryAfter, time.Now())
			c.logf("dist: shard [%d,%d) attempt %d on %s failed: %v", o.sh.start, o.sh.end, o.sh.attempts+1, o.worker, o.err)
		}
		st.failed(o.id, o.sh)
		return nil
	}
	if o.resp == nil {
		st.unplaced(o.sh)
		return nil
	}
	if o.worker != "" {
		c.unbench(o.worker)
	}
	if !st.result(o.id, o.sh, o.resp.Units) {
		o.span.Set(obs.Bool("duplicateDropped", true))
		c.logf("dist: dropping late duplicate shard [%d,%d)", o.sh.start, o.sh.end)
		return nil
	}
	emitShard(opt, o.sh.start, o.sh.end, o.resp)
	if opt.Progress != nil {
		opt.Progress(st.done, st.total)
	}
	return nil
}

// covers reports whether units are a well-formed answer to the range
// [start, end) of the campaign: exactly the cells of the range, each
// payload consistent with the replication count (exp.OrderUnits). Both
// places a payload enters from outside the process — a worker's
// response, a journalled shard — ask it, so what the merge would refuse
// or mis-aggregate is re-run instead.
func (c *Campaign) covers(units []exp.Unit, start, end int) error {
	_, err := exp.OrderUnits(units, start, end, c.Reps())
	return err
}

// emitShard delivers one accepted shard result to the OnShard hook.
func emitShard(opt RunOptions, start, end int, resp *ShardResponse) {
	if opt.OnShard == nil {
		return
	}
	raw, err := json.Marshal(resp)
	if err != nil {
		return
	}
	opt.OnShard(ShardResult{Start: start, End: end, Epoch: opt.Epoch, Units: raw})
}

// benched is a worker out of rotation until until; fails is its streak
// of consecutive failures other than 429s.
type benched struct {
	until time.Time
	fails int
}

// pickWorker returns the next available worker from the fleet at now
// (benched-aware round robin). avoid, when non-empty, is used only if
// no other worker is available — a speculation re-issued to the worker
// it was stolen from would just hang twice. When every worker is
// benched it returns the one that comes back first and how long until
// then.
func (c *Coordinator) pickWorker(fleet []string, avoid string, now time.Time) (string, time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(fleet)
	best, bestUntil := -1, time.Time{}
	avoided := -1
	for off := 0; off < n; off++ {
		i := (c.pick + off) % n
		until := c.bench[fleet[i]].until
		if !until.After(now) {
			if fleet[i] == avoid {
				avoided = i
				continue
			}
			c.pick = i + 1
			return fleet[i], 0
		}
		if best == -1 || until.Before(bestUntil) {
			best, bestUntil = i, until
		}
	}
	if avoided >= 0 {
		c.pick = avoided + 1
		return fleet[avoided], 0
	}
	c.pick = best + 1
	return fleet[best], bestUntil.Sub(now)
}

// benchWorker takes a worker out of rotation after a failure at now. A
// 429's Retry-After is honored exactly; any other failure lengthens the
// worker's streak, and the bench doubles with it (jittered, capped), so
// consecutive failures push the worker further out of rotation.
func (c *Coordinator) benchWorker(worker string, retryAfter time.Duration, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bench == nil {
		c.bench = make(map[string]benched)
	}
	b := c.bench[worker]
	if retryAfter > 0 {
		b.until = now.Add(retryAfter)
	} else {
		b.fails++
		b.until = now.Add(c.backoff(b.fails))
	}
	c.bench[worker] = b
}

// unbench restores a worker to rotation after a success.
func (c *Coordinator) unbench(worker string) {
	c.mu.Lock()
	delete(c.bench, worker)
	c.mu.Unlock()
}

// callWorker does one POST /v1/shards round trip, propagating the
// dispatch span's context as a request header. On a 429 the second
// result carries the server's Retry-After.
func (c *Coordinator) callWorker(ctx context.Context, baseURL string, req *ShardRequest, sctx obs.SpanContext) (*ShardResponse, time.Duration, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(ctx, c.shardTimeout())
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/shards", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	obs.Inject(hreq.Header, sctx)
	hresp, err := c.client().Do(hreq)
	if err != nil {
		return nil, 0, err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode == http.StatusTooManyRequests {
		ra, _ := strconv.Atoi(hresp.Header.Get("Retry-After"))
		io.Copy(io.Discard, hresp.Body)
		return nil, time.Duration(ra) * time.Second, fmt.Errorf("dist: worker %s busy (429)", baseURL)
	}
	if hresp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 512))
		return nil, 0, fmt.Errorf("dist: worker %s: status %d: %s", baseURL, hresp.StatusCode, bytes.TrimSpace(msg))
	}
	var resp ShardResponse
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		return nil, 0, fmt.Errorf("dist: worker %s: decoding shard response: %w", baseURL, err)
	}
	return &resp, 0, nil
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
