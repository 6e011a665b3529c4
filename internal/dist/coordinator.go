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
	// MaxInFlight bounds concurrently dispatched shards; default
	// 2×fleet size (min 2).
	MaxInFlight int
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

	pick int64      // round-robin cursor
	mu   sync.Mutex // guards bench
	// bench maps worker URL → time before which it is not offered
	// work again.
	bench map[string]time.Time

	statDispatched atomic.Int64
	statRequeued   atomic.Int64
	statStolen     atomic.Int64
	statLateDup    atomic.Int64
	statLocalFB    atomic.Int64
	statStitched   atomic.Int64
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
		Dispatched:     c.statDispatched.Load(),
		Requeued:       c.statRequeued.Load(),
		Stolen:         c.statStolen.Load(),
		LateDuplicates: c.statLateDup.Load(),
		LocalFallbacks: c.statLocalFB.Load(),
		SpansStitched:  c.statStitched.Load(),
	}
}

// RunOptions attaches observability and resume state to one
// coordinator run.
type RunOptions struct {
	// Span, when non-nil, becomes the parent of one child span per
	// shard attempt.
	Span *obs.Span
	// Progress, when non-nil, is called after each shard completes
	// with cumulative finished units.
	Progress func(doneUnits, totalUnits int)
	// Completed holds shard results journalled by a previous
	// incarnation of this job: their units are folded into the merge
	// up front and never recomputed. Malformed or overlapping entries
	// are ignored (recomputed), so a corrupt journal degrades to extra
	// work, not a wrong result.
	Completed []ShardResult
	// OnShard, when non-nil, receives every newly accepted shard
	// result (its units marshalled), in completion order — the hook
	// the job store uses to journal shard progress.
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

// shard is one outstanding unit range with its remote attempt count.
// A speculative shard is a duplicate of a still-in-flight primary: on
// success the first result wins; on failure it is dropped silently,
// because its primary still owns the range.
type shard struct {
	start, end  int
	attempts    int
	speculative bool
	// parent is the flight id of the primary a speculation shadows, so
	// a failed speculation can re-arm the primary for stealing.
	parent int64
	// avoid is the worker the primary is stuck on: a speculation is
	// pointless on the same worker, so dispatch prefers any other.
	avoid string
}

// flight is one in-flight remote dispatch, tracked for stealing.
type flight struct {
	sh         shard
	worker     string
	started    time.Time
	speculated bool
}

// Run executes the campaign across the fleet and returns its units,
// every cell of the grid exactly once, for the campaign's own Merge —
// which makes the result bit-identical to the single-process run of
// the same spec.
//
// A bounded set of dispatcher goroutines pull shards from a shared
// queue, place them on benched-aware round-robin workers (the live
// fleet, re-evaluated every dispatch), and feed failures back as
// retries, splits, speculative steals, or local fallbacks. Unit
// coverage is the single source of truth: a result is accepted only if
// none of its units are covered yet, so duplicates from steals or
// previous incarnations can never double-merge. Run returns only when
// every unit is covered, or on the first unrecoverable error.
func (c *Coordinator) Run(ctx context.Context, camp *Campaign, opt RunOptions) ([]exp.Unit, error) {
	total := camp.Cells()
	var merged []exp.Unit

	// Fold in shard results journalled by a previous incarnation:
	// their units are covered up front and never recomputed.
	covered := make([]bool, total)
	coveredCount := 0
	for _, sr := range opt.Completed {
		if sr.Start < 0 || sr.End > total || sr.End <= sr.Start {
			continue
		}
		var resp ShardResponse
		if err := json.Unmarshal(sr.Units, &resp); err != nil {
			continue
		}
		if camp.covers(resp.Units, sr.Start, sr.End) != nil {
			continue
		}
		overlap := false
		for i := sr.Start; i < sr.End; i++ {
			if covered[i] {
				overlap = true
				break
			}
		}
		if overlap {
			continue
		}
		for i := sr.Start; i < sr.End; i++ {
			covered[i] = true
		}
		coveredCount += sr.End - sr.Start
		merged = append(merged, resp.Units...)
	}
	if coveredCount > 0 {
		c.logf("dist: resuming with %d/%d units from journalled shards", coveredCount, total)
		if opt.Progress != nil {
			opt.Progress(coveredCount, total)
		}
	}
	if coveredCount == total {
		return merged, nil
	}

	fleetLen := len(c.fleet())
	if fleetLen < 1 {
		fleetLen = 1
	}
	unitsPerShard := c.UnitsPerShard
	if unitsPerShard <= 0 {
		unitsPerShard = (total + 4*fleetLen - 1) / (4 * fleetLen)
	}
	if unitsPerShard < 1 {
		unitsPerShard = 1
	}
	inFlight := c.MaxInFlight
	if inFlight <= 0 {
		inFlight = 2 * fleetLen
	}
	if inFlight < 2 {
		inFlight = 2
	}

	var (
		mu       sync.Mutex
		cond     = sync.NewCond(&mu)
		queue    []shard
		flights  = make(map[int64]*flight)
		flightID int64
		firstErr error
		stopped  bool
	)
	for _, gap := range uncoveredGaps(covered) {
		for start := gap.start; start < gap.end; start += unitsPerShard {
			end := start + unitsPerShard
			if end > gap.end {
				end = gap.end
			}
			queue = append(queue, shard{start: start, end: end})
		}
	}

	// runCtx cancels lingering dispatches the moment the run settles
	// (complete or failed), so a hung speculative call can't hold the
	// loop open for a full ShardTimeout.
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	watch := make(chan struct{})
	defer close(watch)
	go func() {
		select {
		case <-ctx.Done():
			mu.Lock()
			stopped = true
			mu.Unlock()
			cond.Broadcast()
		case <-watch:
		}
	}()

	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancelRun()
		cond.Broadcast()
	}
	// accept merges a completed shard's units unless any are already
	// covered — the (job, shard range, epoch) dedupe that makes steal
	// races and previous-incarnation stragglers harmless. It reports
	// whether the result was merged, so the dispatcher can tag the
	// shard's span as a dropped duplicate.
	accept := func(sh shard, resp *ShardResponse) bool {
		mu.Lock()
		for i := sh.start; i < sh.end; i++ {
			if covered[i] {
				mu.Unlock()
				c.statLateDup.Add(1)
				c.logf("dist: dropping late duplicate shard [%d,%d)", sh.start, sh.end)
				return false
			}
		}
		for i := sh.start; i < sh.end; i++ {
			covered[i] = true
		}
		coveredCount += sh.end - sh.start
		merged = append(merged, resp.Units...)
		done := coveredCount
		complete := coveredCount == total
		mu.Unlock()
		if complete {
			cancelRun()
		}
		cond.Broadcast()
		emitShard(opt, sh.start, sh.end, resp)
		if opt.Progress != nil {
			opt.Progress(done, total)
		}
		return true
	}
	requeue := func(shs ...shard) {
		mu.Lock()
		queue = append(queue, shs...)
		mu.Unlock()
		c.statRequeued.Add(1)
		cond.Broadcast()
	}

	// No fleet and no membership: run each gap locally as one shard.
	if len(c.Workers) == 0 && c.Members == nil {
		for _, gap := range uncoveredGaps(covered) {
			span := opt.Span.Child("shard")
			span.Set(obs.Str("mode", "local"), obs.Int("start", gap.start), obs.Int("end", gap.end))
			units, err := camp.Run(ctx, c.LocalWorkers, gap.start, gap.end)
			span.End()
			if err != nil {
				return nil, err
			}
			accept(shard{start: gap.start, end: gap.end}, &ShardResponse{Units: units})
		}
		return merged, nil
	}

	// Steal scanner: speculatively re-issue shards stuck in flight past
	// StealAfter, and immediately re-issue shards whose worker left the
	// live fleet (heartbeat TTL expiry).
	tick := c.stealAfter() / 8
	if tick < 50*time.Millisecond {
		tick = 50 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	scanDone := make(chan struct{})
	var scanWG sync.WaitGroup
	scanWG.Add(1)
	go func() {
		defer scanWG.Done()
		t := time.NewTicker(tick)
		defer t.Stop()
		for {
			select {
			case <-scanDone:
				return
			case <-t.C:
			}
			live := make(map[string]bool)
			for _, w := range c.fleet() {
				live[w] = true
			}
			now := time.Now()
			var stolen []shard
			mu.Lock()
			for id, f := range flights {
				if f.speculated || f.sh.speculative {
					continue
				}
				slow := now.Sub(f.started) > c.stealAfter()
				orphaned := !live[f.worker]
				if !slow && !orphaned {
					continue
				}
				f.speculated = true
				stolen = append(stolen, shard{start: f.sh.start, end: f.sh.end, speculative: true, parent: id, avoid: f.worker})
				c.logf("dist: stealing shard [%d,%d) from %s (slow=%v orphaned=%v)",
					f.sh.start, f.sh.end, f.worker, slow, orphaned)
			}
			queue = append(queue, stolen...)
			mu.Unlock()
			if len(stolen) > 0 {
				c.statStolen.Add(int64(len(stolen)))
				cond.Broadcast()
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < inFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for len(queue) == 0 && coveredCount < total && !stopped && firstErr == nil {
					cond.Wait()
				}
				if stopped || firstErr != nil || coveredCount == total {
					mu.Unlock()
					return
				}
				sh := queue[len(queue)-1]
				queue = queue[:len(queue)-1]
				// A queued shard whose units got covered in the
				// meantime (a steal winner beat it) is obsolete.
				obsolete := true
				for i := sh.start; i < sh.end; i++ {
					if !covered[i] {
						obsolete = false
						break
					}
				}
				mu.Unlock()
				if obsolete {
					continue
				}

				c.dispatch(runCtx, ctx, camp, sh, opt, dispatchHooks{
					accept:  accept,
					requeue: requeue,
					fail:    fail,
					track: func(f *flight) int64 {
						mu.Lock()
						flightID++
						id := flightID
						flights[id] = f
						mu.Unlock()
						return id
					},
					untrack: func(id int64) {
						mu.Lock()
						delete(flights, id)
						mu.Unlock()
					},
					unspeculate: func(parent int64) {
						mu.Lock()
						if f, ok := flights[parent]; ok {
							f.speculated = false
						}
						mu.Unlock()
					},
					settled: func() bool {
						mu.Lock()
						defer mu.Unlock()
						return stopped || firstErr != nil || coveredCount == total
					},
				})
			}
		}()
	}
	wg.Wait()
	close(scanDone)
	scanWG.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return merged, nil
}

// dispatchHooks is the dispatcher's channel back into the run state.
type dispatchHooks struct {
	accept      func(shard, *ShardResponse) bool
	requeue     func(...shard)
	fail        func(error)
	track       func(*flight) int64
	untrack     func(int64)
	unspeculate func(parent int64)
	settled     func() bool
}

// gap is a maximal uncovered unit range.
type gap struct{ start, end int }

// uncoveredGaps lists the maximal runs of uncovered units.
func uncoveredGaps(covered []bool) []gap {
	var out []gap
	i := 0
	for i < len(covered) {
		if covered[i] {
			i++
			continue
		}
		j := i
		for j < len(covered) && !covered[j] {
			j++
		}
		out = append(out, gap{start: i, end: j})
		i = j
	}
	return out
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

// dispatch places one shard: remote while attempts remain, splitting
// multi-unit primaries on failure so their work redistributes, then
// the local fallback. Speculative shards drop silently on failure —
// their primary still owns the range. runCtx bounds the remote call
// (it cancels when the run settles); ctx is the caller's context, used
// to distinguish real cancellation from settle cleanup.
func (c *Coordinator) dispatch(runCtx, ctx context.Context, camp *Campaign, sh shard, opt RunOptions, h dispatchHooks) {

	if sh.attempts >= c.maxAttempts() {
		if sh.speculative {
			return
		}
		// Remote attempts exhausted: the shard runs here, so no worker
		// failure mode can lose it.
		span := opt.Span.Child("shard")
		span.Set(obs.Str("mode", "fallback"), obs.Int("start", sh.start), obs.Int("end", sh.end))
		c.logf("dist: shard [%d,%d) exhausted %d remote attempts; running locally", sh.start, sh.end, sh.attempts)
		c.statLocalFB.Add(1)
		units, err := camp.Run(runCtx, c.LocalWorkers, sh.start, sh.end)
		span.End()
		if err != nil {
			if h.settled() {
				return
			}
			h.fail(fmt.Errorf("dist: local fallback for shard [%d,%d): %w", sh.start, sh.end, err))
			return
		}
		if !h.accept(sh, &ShardResponse{Units: units}) {
			span.Set(obs.Bool("duplicateDropped", true))
		}
		return
	}

	fleet := c.fleet()
	if len(fleet) == 0 {
		// No live workers right now: wait a beat for one to register,
		// burning an attempt so a forever-empty fleet still converges
		// to the local fallback.
		if err := sleepCtx(runCtx, 250*time.Millisecond); err != nil {
			if h.settled() {
				return
			}
			h.fail(err)
			return
		}
		sh.attempts++
		h.requeue(sh)
		return
	}

	worker, wait := c.pickWorker(fleet, sh.avoid)
	if wait > 0 {
		// Whole fleet benched: wait for the first worker to come back.
		if err := sleepCtx(runCtx, wait); err != nil {
			if h.settled() {
				return
			}
			h.fail(err)
			return
		}
	}

	span := opt.Span.Child("shard")
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
	id := h.track(&flight{sh: sh, worker: worker, started: time.Now()})
	c.statDispatched.Add(1)
	resp, retryAfter, err := c.callWorker(runCtx, worker, &req, sctx)
	if err == nil {
		if err = camp.covers(resp.Units, sh.start, sh.end); err != nil {
			err = fmt.Errorf("dist: worker %s: %w", worker, err)
		}
	}
	h.untrack(id)
	if err == nil {
		if resp.Trace != nil {
			// Stitch the worker's subtree under the still-open dispatch
			// span (its envelope is the clock-alignment anchor), then
			// strip it: the merge and the journal carry payload only.
			c.statStitched.Add(int64(span.GraftRemote(resp.Trace, worker)))
			resp.Trace = nil
		}
		span.End()
		c.unbench(worker)
		if !h.accept(sh, resp) {
			span.Set(obs.Bool("duplicateDropped", true))
		}
		return
	}
	span.Set(obs.Str("error", err.Error()))
	span.End()
	if h.settled() {
		return
	}
	if ctx.Err() != nil {
		h.fail(ctx.Err())
		return
	}

	if sh.speculative {
		// The primary still owns this range; just re-arm it for a
		// future steal.
		c.logf("dist: speculative shard [%d,%d) on %s failed: %v", sh.start, sh.end, worker, err)
		h.unspeculate(sh.parent)
		return
	}

	c.benchWorker(worker, retryAfter)
	sh.attempts++
	c.logf("dist: shard [%d,%d) attempt %d on %s failed: %v", sh.start, sh.end, sh.attempts, worker, err)
	if n := sh.end - sh.start; n > 1 {
		// Re-shard: halves redistribute over the surviving fleet.
		mid := sh.start + n/2
		h.requeue(shard{start: sh.start, end: mid, attempts: sh.attempts},
			shard{start: mid, end: sh.end, attempts: sh.attempts})
		return
	}
	h.requeue(sh)
}

// pickWorker returns the next available worker from the fleet
// (benched-aware round robin). avoid, when non-empty, is used only if
// no other worker is available — a speculation re-issued to the worker
// it was stolen from would just hang twice. When every worker is
// benched it returns the one that comes back first and how long until
// then.
func (c *Coordinator) pickWorker(fleet []string, avoid string) (string, time.Duration) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(fleet)
	best, bestUntil := -1, time.Time{}
	avoided := -1
	for off := 0; off < n; off++ {
		i := int((c.pick + int64(off)) % int64(n))
		until := c.bench[fleet[i]]
		if !until.After(now) {
			if fleet[i] == avoid {
				avoided = i
				continue
			}
			c.pick = int64(i) + 1
			return fleet[i], 0
		}
		if best == -1 || until.Before(bestUntil) {
			best, bestUntil = i, until
		}
	}
	if avoided >= 0 {
		c.pick = int64(avoided) + 1
		return fleet[avoided], 0
	}
	c.pick = int64(best) + 1
	return fleet[best], bestUntil.Sub(now)
}

// benchWorker takes a worker out of rotation after a failure. A 429's
// Retry-After is honored exactly; otherwise the bench grows with the
// worker's consecutive-failure streak (tracked as the remaining bench).
func (c *Coordinator) benchWorker(worker string, retryAfter time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.bench == nil {
		c.bench = make(map[string]time.Time)
	}
	d := retryAfter
	if d <= 0 {
		// Double the previous bench (jittered, capped) — consecutive
		// failures push the worker further out of rotation.
		prev := time.Until(c.bench[worker])
		fails := 1
		for b := c.retryBase(); b < prev && b < c.retryCap(); b *= 2 {
			fails++
		}
		d = c.backoff(fails)
	}
	c.bench[worker] = time.Now().Add(d)
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
