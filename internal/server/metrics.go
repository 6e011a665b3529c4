package server

import (
	"expvar"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"budgetwf/internal/dist"
	"budgetwf/internal/exp"
	"budgetwf/internal/obs"
	"budgetwf/internal/pool"
)

// Metrics aggregates the daemon's observability counters as expvar
// variables. Each Server owns an unpublished instance (so tests can
// run many servers in one process without colliding in the global
// expvar namespace); cmd/budgetwfd publishes the daemon's instance
// under "budgetwfd" and the same JSON is always available from the
// server's own GET /metrics endpoint.
type Metrics struct {
	requests   *expvar.Map // endpoint → request count
	statuses   *expvar.Map // HTTP status → response count
	algorithms *expvar.Map // algorithm → schedule requests (hits + plans)
	estimators *expvar.Map // estimator (mc, analytic) → simulate/sweep requests
	latencies  *expvar.Map // endpoint → latency histogram
	jobs       *expvar.Map // async-job lifecycle event → count
	shards     expvar.Int  // shards served via POST /v1/shards
	// Spot-market activity computed by this process (simulate
	// replications, sweep cells, shard units): VMs booked on spot
	// categories, revocations suffered, and rework cost paid. Sweep
	// results merged from remote workers count on the worker that
	// computed them and again on the coordinator that served the job —
	// these are per-process activity counters, not a fleet ledger.
	spotVMs         expvar.Float
	spotRevocations expvar.Float
	spotReworkCost  expvar.Float
	// traceExported counts spans exported into shard responses for
	// coordinator-side stitching.
	traceExported expvar.Int
	panics        expvar.Int

	mu        sync.Mutex // guards lazy histogram creation
	cache     *planCache
	pool      *workerPool
	root      *expvar.Map
	jobStates func() map[string]int // live job-state gauge, nil until set

	// Shared-pool gauges, nil unless the multi-tenant service is on.
	poolStats   func() pool.Stats
	poolTenants func() []pool.TenantView

	// Cluster control-plane gauges (worker membership, shard dispatch,
	// journal durability), nil until set.
	cluster func() clusterStats
}

// clusterStats is one consistent snapshot of the cluster control
// plane, feeding the "cluster" expvar entry and the budgetwfd_workers/
// budgetwfd_shards/budgetwfd_journal Prometheus families.
type clusterStats struct {
	WorkersLive    int             `json:"workersLive"`
	WorkersSuspect int             `json:"workersSuspect"`
	Coordinator    dist.CoordStats `json:"coordinator"`
	// LateShards is shard results the job store dropped as duplicates
	// (previous-incarnation stragglers).
	LateShards int64             `json:"lateShards"`
	Journal    dist.JournalStats `json:"journal"`
	HasJournal bool              `json:"hasJournal"`
}

func newMetrics(cache *planCache, pool *workerPool) *Metrics {
	m := &Metrics{
		requests:   new(expvar.Map).Init(),
		statuses:   new(expvar.Map).Init(),
		algorithms: new(expvar.Map).Init(),
		estimators: new(expvar.Map).Init(),
		latencies:  new(expvar.Map).Init(),
		jobs:       new(expvar.Map).Init(),
		cache:      cache,
		pool:       pool,
	}
	m.root = new(expvar.Map).Init()
	m.root.Set("requests", m.requests)
	m.root.Set("statuses", m.statuses)
	m.root.Set("algorithms", m.algorithms)
	m.root.Set("estimators", m.estimators)
	m.root.Set("latencyMs", m.latencies)
	m.root.Set("jobs", m.jobs)
	m.root.Set("shardsServed", &m.shards)
	m.root.Set("spot", expvar.Func(func() any {
		return map[string]any{
			"vms":         m.spotVMs.Value(),
			"revocations": m.spotRevocations.Value(),
			"reworkCost":  m.spotReworkCost.Value(),
		}
	}))
	m.root.Set("traces", expvar.Func(func() any {
		return map[string]any{
			"spansExported": m.traceExported.Value(),
			"spansDropped":  obs.DroppedTotal(),
		}
	}))
	m.root.Set("panics", &m.panics)
	// cache.hits counts every hit; bodyHits is the part of them that
	// came through a body alias and skipped the parse.
	m.root.Set("cache", expvar.Func(func() any {
		return map[string]any{
			"enabled":  cache.Enabled(),
			"hits":     cache.Hits(),
			"bodyHits": cache.BodyHits(),
			"misses":   cache.Misses(),
			"hitRate":  cache.HitRate(),
			"size":     cache.Len(),
			"aliases":  cache.Aliases(),
		}
	}))
	m.root.Set("pool", expvar.Func(func() any {
		return map[string]any{
			"queueDepth": pool.queueDepth(),
			"inFlight":   pool.inFlightCount(),
		}
	}))
	return m
}

// Var returns the assembled expvar map, suitable for expvar.Publish.
func (m *Metrics) Var() expvar.Var { return m.root }

// observe records one finished request.
func (m *Metrics) observe(endpoint string, status int, d time.Duration) {
	m.requests.Add(endpoint, 1)
	m.statuses.Add(fmt.Sprintf("%d", status), 1)
	m.histogram(endpoint).observe(d)
}

// observeAlgorithm counts one /v1/schedule request per algorithm.
func (m *Metrics) observeAlgorithm(name string) { m.algorithms.Add(name, 1) }

// observeEstimator counts one /v1/simulate or /v1/sweep request per
// resolved estimator ("mc" or "analytic").
func (m *Metrics) observeEstimator(name string) { m.estimators.Add(name, 1) }

// EstimatorCount returns the number of simulate/sweep requests served
// with the given estimator (tests assert the counter moves).
func (m *Metrics) EstimatorCount(name string) int64 {
	if v, ok := m.estimators.Get(name).(*expvar.Int); ok {
		return v.Value()
	}
	return 0
}

// observeJob counts one async-job lifecycle event (submitted, deduped,
// completed, failed, cancelRequested).
func (m *Metrics) observeJob(event string) { m.jobs.Add(event, 1) }

// observeShard counts one shard served via POST /v1/shards.
func (m *Metrics) observeShard() { m.shards.Add(1) }

// observeSpot folds one batch's spot-market activity — VM bookings,
// revocations, rework cost — into the process counters.
func (m *Metrics) observeSpot(b exp.Batch) {
	if b.SpotVMs == 0 && b.Revocations == 0 && b.ReworkCost == 0 {
		return
	}
	m.spotVMs.Add(float64(b.SpotVMs))
	m.spotRevocations.Add(float64(b.Revocations))
	m.spotReworkCost.Add(b.ReworkCost)
}

// SpotRevocations returns the revocation counter (tests assert the
// spot families move).
func (m *Metrics) SpotRevocations() float64 { return m.spotRevocations.Value() }

// observeTraceExported counts spans exported into a shard response.
func (m *Metrics) observeTraceExported(n int) { m.traceExported.Add(int64(n)) }

// TraceSpansExported returns the exported-span counter (tests).
func (m *Metrics) TraceSpansExported() int64 { return m.traceExported.Value() }

// setJobStates installs the live job-state gauge (state → count) and
// publishes it under "jobStates" in the expvar map.
func (m *Metrics) setJobStates(fn func() map[string]int) {
	m.jobStates = fn
	m.root.Set("jobStates", expvar.Func(func() any { return fn() }))
}

// setCluster installs the cluster control-plane gauge and publishes it
// under "cluster" in the expvar map, plus the budgetwfd_workers_*,
// budgetwfd_shards_*_total and budgetwfd_journal_snapshot_* families
// in the Prometheus exposition.
func (m *Metrics) setCluster(fn func() clusterStats) {
	m.cluster = fn
	m.root.Set("cluster", expvar.Func(func() any { return fn() }))
}

// setSharedPool installs the multi-tenant pool gauges: the pool-wide
// snapshot under "sharedPool" and the per-tenant billing ledgers under
// "tenants" in the expvar map, plus the budgetwfd_shared_pool_* and
// budgetwfd_tenant_* families in the Prometheus exposition.
func (m *Metrics) setSharedPool(stats func() pool.Stats, tenants func() []pool.TenantView) {
	m.poolStats = stats
	m.poolTenants = tenants
	m.root.Set("sharedPool", expvar.Func(func() any { return stats() }))
	m.root.Set("tenants", expvar.Func(func() any { return tenants() }))
}

// JobEventCount returns the number of observed job lifecycle events of
// one kind (tests assert on submissions and dedupes through it).
func (m *Metrics) JobEventCount(event string) int64 {
	if v, ok := m.jobs.Get(event).(*expvar.Int); ok {
		return v.Value()
	}
	return 0
}

// observePanic counts one recovered handler panic.
func (m *Metrics) observePanic() { m.panics.Add(1) }

// histogram returns the endpoint's latency histogram, creating it on
// first use.
func (m *Metrics) histogram(endpoint string) *latencyHist {
	if v := m.latencies.Get(endpoint); v != nil {
		return v.(*latencyHist)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if v := m.latencies.Get(endpoint); v != nil {
		return v.(*latencyHist)
	}
	h := &latencyHist{}
	m.latencies.Set(endpoint, h)
	return h
}

// CacheHits, CacheMisses and CacheHitRate expose the plan-cache
// counters (the proof that repeated requests skip the planner);
// CacheBodyHits counts the hits that skipped the parse as well.
func (m *Metrics) CacheHits() uint64     { return m.cache.Hits() }
func (m *Metrics) CacheBodyHits() uint64 { return m.cache.BodyHits() }
func (m *Metrics) CacheMisses() uint64   { return m.cache.Misses() }
func (m *Metrics) CacheHitRate() float64 { return m.cache.HitRate() }

// RequestCount returns the number of requests observed on an endpoint.
func (m *Metrics) RequestCount(endpoint string) int64 {
	if v, ok := m.requests.Get(endpoint).(*expvar.Int); ok {
		return v.Value()
	}
	return 0
}

// StatusCount returns the number of responses with the given status.
func (m *Metrics) StatusCount(status int) int64 {
	if v, ok := m.statuses.Get(fmt.Sprintf("%d", status)).(*expvar.Int); ok {
		return v.Value()
	}
	return 0
}

// latencyBoundsMs are the histogram bucket upper bounds, in
// milliseconds; a final unbounded bucket catches the tail.
var latencyBoundsMs = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

// latencyHist is a fixed-bucket latency histogram implementing
// expvar.Var. All fields are manipulated atomically. There is
// deliberately no separate count field: the count is derived from the
// bucket sums at snapshot time, so a reader can never observe a count
// that disagrees with the buckets it just read (the earlier design
// kept an independent counter, and String could render count=N with
// N-1 bucketed observations mid-update). The sum is kept in
// nanoseconds: sub-microsecond requests (healthz under load) must
// advance the sum, not silently add zero.
type latencyHist struct {
	sumNs   atomic.Uint64
	buckets [13]atomic.Uint64 // len(latencyBoundsMs) + 1 overflow
}

func (h *latencyHist) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.sumNs.Add(uint64(d))
	ms := float64(d) / float64(time.Millisecond)
	for i, bound := range latencyBoundsMs {
		if ms <= bound {
			h.buckets[i].Add(1)
			return
		}
	}
	h.buckets[len(latencyBoundsMs)].Add(1)
}

// histSnapshot is one self-consistent view of a latencyHist, shared by
// the JSON (String) and Prometheus renderers. Buckets holds per-bucket
// (non-cumulative) counts; Count is exactly their sum.
type histSnapshot struct {
	Count   uint64
	SumMs   float64
	Buckets [13]uint64
}

// Snapshot reads the histogram once. Concurrent observes may land
// between bucket loads, but Count always equals the sum of the Buckets
// returned — the renderers can never disagree with themselves.
func (h *latencyHist) Snapshot() histSnapshot {
	var s histSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
		s.Count += s.Buckets[i]
	}
	s.SumMs = float64(h.sumNs.Load()) / 1e6
	return s
}

// Quantile estimates the q-quantile (0 < q < 1) in milliseconds by
// linear interpolation within the bucket containing the rank. The
// overflow bucket reports the last finite bound (the histogram cannot
// see past it).
func (s histSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	cum, lower := 0.0, 0.0
	for i, bound := range latencyBoundsMs {
		c := float64(s.Buckets[i])
		if c > 0 && cum+c >= rank {
			return lower + (rank-cum)/c*(bound-lower)
		}
		cum += c
		lower = bound
	}
	return lower
}

// String renders the histogram as JSON, as expvar requires, including
// estimated p50/p95/p99.
func (h *latencyHist) String() string {
	s := h.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, `{"count":%d,"sumMs":%.3f`, s.Count, s.SumMs)
	for i, bound := range latencyBoundsMs {
		fmt.Fprintf(&b, `,"le%g":%d`, bound, s.Buckets[i])
	}
	fmt.Fprintf(&b, `,"inf":%d`, s.Buckets[len(latencyBoundsMs)])
	fmt.Fprintf(&b, `,"p50":%.3f,"p95":%.3f,"p99":%.3f`,
		s.Quantile(0.50), s.Quantile(0.95), s.Quantile(0.99))
	b.WriteString("}")
	return b.String()
}
