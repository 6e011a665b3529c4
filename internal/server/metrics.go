package server

import (
	"strconv"
	"time"

	"budgetwf/internal/dist"
	"budgetwf/internal/exp"
	"budgetwf/internal/obs"
	"budgetwf/internal/pool"
)

// metrics is the daemon's declaration table. newMetrics declares every
// family GET /metrics serves exactly once, in exposition order, in an
// unpublished obs.Registry (so tests can run many servers in one
// process); the fields are the handles the handlers move. Everything
// read from another component at scrape time is a snapshot group.
type metrics struct {
	reg        *obs.Registry
	requests   *obs.CounterVec
	statuses   *obs.CounterVec
	byStatus   [500]*obs.Counter // statuses' handles for 100..599: the request path formats nothing
	algorithms *obs.CounterVec   // schedule requests (hits + plans)
	estimators *obs.CounterVec   // simulate/sweep requests by resolved estimator
	jobEvents  *obs.CounterVec   // submitted, deduped, completed, failed, cancelRequested
	latency    *obs.HistogramVec
	shards     *obs.Counter
	// Spot-market activity computed by this process (simulate
	// replications, sweep cells, shard units). Sweep results merged from
	// remote workers count on the worker that computed them and again on
	// the coordinator that served the job — these are per-process
	// activity counters, not a fleet ledger.
	spotVMs, spotRevocations, spotReworkCost *obs.Counter
	traceExported, panics                    *obs.Counter
}

// clusterStats is one consistent snapshot of the cluster control
// plane: the "cluster" entry of the JSON document, field for field.
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

func (s *Server) clusterStats() clusterStats {
	live, suspect := s.registry.Counts()
	return clusterStats{
		WorkersLive: live, WorkersSuspect: suspect, Coordinator: s.coord.Stats(), LateShards: s.jobs.LateShards(),
		Journal: s.journalStats(), HasJournal: s.journal != nil,
	}
}

// journalStats reads all zero without a journal — one not asked for, or
// one that did not open: nothing is durable.
func (s *Server) journalStats() dist.JournalStats {
	if s.journal == nil {
		return dist.JournalStats{}
	}
	return s.journal.Stats()
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// latencyBoundsMs are the request-latency bucket upper bounds.
var latencyBoundsMs = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000}

func newMetrics(s *Server) *metrics {
	r := obs.NewRegistry()
	m := &metrics{reg: r}
	counter := func(name, help string) obs.Desc { return obs.Desc{Name: name, Help: help, Type: "counter"} }
	gauge := func(name, help string) obs.Desc { return obs.Desc{Name: name, Help: help, Type: "gauge"} }
	fractional := func(d obs.Desc) obs.Desc { d.Float = true; return d }
	by := func(label string, d obs.Desc) obs.Desc { d.Label = label; return d }

	m.requests = r.CounterVec("budgetwfd_requests_total", "endpoint", "requests", "Requests received, by endpoint.")
	m.statuses = r.CounterVec("budgetwfd_responses_total", "status", "statuses", "Responses sent, by HTTP status.")
	for i := range m.byStatus {
		m.byStatus[i] = m.statuses.With(strconv.Itoa(100 + i))
	}
	m.algorithms = r.CounterVec("budgetwfd_schedule_algorithms_total", "algorithm", "algorithms", "Schedule requests (cache hits included), by algorithm.")
	m.estimators = r.CounterVec("budgetwfd_estimator_requests_total", "estimator", "estimators", "Simulate/sweep requests, by estimator (mc, analytic).")
	m.jobEvents = r.CounterVec("budgetwfd_jobs_total", "event", "jobs", "Async-job lifecycle events, by event.")
	jobStates := obs.NewGroup(r, "jobStates", s.jobs.Counts)
	jobStates.Series(by("state", gauge("budgetwfd_jobs", "Retained async jobs, by state.")), func(states map[dist.State]int, emit func(string, float64)) {
		for st, n := range states {
			emit(string(st), float64(n))
		}
	})
	m.shards = r.Counter("budgetwfd_shards_served_total", "shardsServed", "Shards evaluated via POST /v1/shards.")
	m.spotVMs = r.FloatCounter("budgetwfd_spot_vms_total", "spot.vms", "VMs booked on spot (preemptible) categories by this process's executions.")
	m.spotRevocations = r.FloatCounter("budgetwfd_spot_revocations_total", "spot.revocations", "Spot VM revocations suffered by this process's executions.")
	m.spotReworkCost = r.FloatCounter("budgetwfd_spot_rework_cost_total", "spot.reworkCost", "Rework cost paid for revocations: wasted spot billing plus replacement init fees.")

	cluster := obs.NewGroup(r, "cluster", s.clusterStats)
	m.traceExported = r.Counter("budgetwfd_trace_spans_exported_total", "traces.spansExported", "Spans exported into shard responses for coordinator-side stitching.")
	cluster.Value(counter("budgetwfd_trace_spans_stitched_total", "Worker spans grafted into stitched job traces."), func(c clusterStats) float64 { return float64(c.Coordinator.SpansStitched) })
	r.Func(obs.Desc{Name: "budgetwfd_trace_spans_dropped_total", Type: "counter", JSON: "traces.spansDropped", Help: "Spans/events discarded at the per-trace node cap, process-wide."}, func() float64 { return float64(obs.DroppedTotal()) })
	cluster.Value(gauge("budgetwfd_workers_live", "Registered workers with a heartbeat inside the TTL."), func(c clusterStats) float64 { return float64(c.WorkersLive) })
	cluster.Value(gauge("budgetwfd_workers_suspect", "Registered workers past their heartbeat TTL."), func(c clusterStats) float64 { return float64(c.WorkersSuspect) })
	cluster.Value(counter("budgetwfd_shards_dispatched_total", "Remote shard attempts issued by the coordinator."), func(c clusterStats) float64 { return float64(c.Coordinator.Dispatched) })
	cluster.Value(counter("budgetwfd_shards_requeued_total", "Failed shard attempts fed back into the dispatch queue."), func(c clusterStats) float64 { return float64(c.Coordinator.Requeued) })
	cluster.Value(counter("budgetwfd_shards_stolen_total", "Slow or orphaned shards speculatively re-issued to another worker."), func(c clusterStats) float64 { return float64(c.Coordinator.Stolen) })
	// Exposition only: the JSON document keeps the two addends apart.
	cluster.Value(counter("budgetwfd_shards_duplicate_dropped_total", "Shard results dropped because their units were already covered."), func(c clusterStats) float64 { return float64(c.Coordinator.LateDuplicates + c.LateShards) })
	cluster.Value(counter("budgetwfd_shards_local_fallback_total", "Shards that exhausted remote attempts and ran on the coordinator."), func(c clusterStats) float64 { return float64(c.Coordinator.LocalFallbacks) })
	cluster.Value(counter("budgetwfd_journal_append_errors_total", "Journal appends that failed; the job went on without the record."), func(c clusterStats) float64 { return float64(c.Journal.AppendErrors) })
	if s.cfg.JournalPath != "" { // the journal's JSON form is cluster.journal
		journal := obs.NewGroup(r, "", s.journalStats)
		journal.Value(gauge("budgetwfd_journal_tail_records", "Journal records a restart would replay on top of the snapshot."), func(j dist.JournalStats) float64 { return float64(j.TailRecords) })
		journal.Value(gauge("budgetwfd_journal_tail_bytes", "Size of the live journal tail."), func(j dist.JournalStats) float64 { return float64(j.TailBytes) })
		journal.Value(gauge("budgetwfd_journal_snapshot_bytes", "Size of the last journal snapshot."), func(j dist.JournalStats) float64 { return float64(j.SnapshotBytes) })
		// Exposition only: the JSON document carries snapshotTime itself.
		journal.Value(fractional(gauge("budgetwfd_journal_snapshot_age_seconds", "Seconds since the last journal snapshot (-1 if none).")), func(j dist.JournalStats) float64 {
			if j.SnapshotTime.IsZero() {
				return -1
			}
			return time.Since(j.SnapshotTime).Seconds()
		})
		journal.Value(gauge("budgetwfd_journal_durable", "Whether the disk holds every acknowledged job (1), or the journal did not open or a write has failed since the last compaction (0)."), func(j dist.JournalStats) float64 { return boolGauge(j.Durable) })
	}
	m.panics = r.Counter("budgetwfd_panics_total", "panics", "Handler panics recovered by the middleware.")
	m.latency = r.HistogramVec("budgetwfd_request_duration_seconds", "endpoint", "latencyMs", "Request latency, by endpoint.", latencyBoundsMs)

	cache := obs.NewGroup(r, "cache", s.cache.stats)
	cache.Value(counter("budgetwfd_cache_hits_total", "Plan-cache hits."), func(c cacheStats) float64 { return float64(c.Hits) })
	cache.Value(counter("budgetwfd_cache_body_hits_total", "Plan-cache hits answered from a body alias, without parsing the request (a subset of budgetwfd_cache_hits_total)."), func(c cacheStats) float64 { return float64(c.BodyHits) })
	cache.Value(counter("budgetwfd_cache_misses_total", "Plan-cache misses."), func(c cacheStats) float64 { return float64(c.Misses) })
	cache.Value(gauge("budgetwfd_cache_entries", "Plan-cache resident entries."), func(c cacheStats) float64 { return float64(c.Size) })
	cache.Value(gauge("budgetwfd_cache_aliases", "Request-body digests aliased to resident plan-cache entries."), func(c cacheStats) float64 { return float64(c.Aliases) })
	cache.Value(gauge("budgetwfd_cache_enabled", "Whether the plan cache is enabled (1) or disabled (0)."), func(c cacheStats) float64 { return boolGauge(c.Enabled) })
	r.Func(obs.Desc{Name: "budgetwfd_pool_queue_depth", Type: "gauge", JSON: "pool.queueDepth", Help: "Admitted requests waiting for a worker."}, func() float64 { return float64(s.pool.queueDepth()) })
	r.Func(obs.Desc{Name: "budgetwfd_pool_in_flight", Type: "gauge", JSON: "pool.inFlight", Help: "Requests currently executing on a worker."}, func() float64 { return float64(s.pool.inFlightCount()) })

	if svc := s.poolSvc; svc != nil { // the multi-tenant pool
		shared := obs.NewGroup(r, "sharedPool", svc.Stats)
		shared.Value(counter("budgetwfd_shared_pool_submissions_total", "Workflow submissions accepted by the shared pool."), func(p pool.Stats) float64 { return float64(p.Submissions) })
		shared.Value(counter("budgetwfd_shared_pool_completed_total", "Submissions settled successfully."), func(p pool.Stats) float64 { return float64(p.Completed) })
		shared.Value(counter("budgetwfd_shared_pool_rejected_total", "Submissions rejected by fair-share admission."), func(p pool.Stats) float64 { return float64(p.Rejected) })
		shared.Value(counter("budgetwfd_shared_pool_failed_total", "Submissions that failed during execution."), func(p pool.Stats) float64 { return float64(p.Failed) })
		shared.Value(counter("budgetwfd_shared_pool_provisioned_total", "Fresh VMs provisioned."), func(p pool.Stats) float64 { return float64(p.Provisioned) })
		shared.Value(counter("budgetwfd_shared_pool_reused_total", "Idle VMs leased to a new submission within their paid billing period."), func(p pool.Stats) float64 { return float64(p.Reused) })
		shared.Value(counter("budgetwfd_shared_pool_deprovisioned_total", "VMs released at (or below) the time-to-shutdown threshold."), func(p pool.Stats) float64 { return float64(p.Deprovisioned) })
		shared.Value(gauge("budgetwfd_shared_pool_active_vms", "VMs currently held by running submissions."), func(p pool.Stats) float64 { return float64(p.ActiveVMs) })
		shared.Value(gauge("budgetwfd_shared_pool_idle_vms", "Idle VMs parked inside an already-paid billing period."), func(p pool.Stats) float64 { return float64(p.IdleVMs) })
		shared.Value(fractional(counter("budgetwfd_shared_pool_billed_total", "Total amount billed across all tenants.")), func(p pool.Stats) float64 { return p.BilledTotal })
		shared.Value(fractional(counter("budgetwfd_shared_pool_saved_init_cost_total", "Setup fees avoided by VM reuse.")), func(p pool.Stats) float64 { return p.SavedInitCost })
		shared.Value(fractional(counter("budgetwfd_shared_pool_idle_waste_seconds_total", "Paid-but-idle VM seconds.")), func(p pool.Stats) float64 { return p.IdleWasteSeconds })
		shared.Value(fractional(gauge("budgetwfd_shared_pool_virtual_now_seconds", "The pool's virtual-time frontier.")), func(p pool.Stats) float64 { return p.Now })

		tenants := obs.NewGroup(r, "tenants", svc.Tenants)
		tenant := func(d obs.Desc, value func(pool.TenantView) float64) {
			tenants.Series(by("tenant", d), func(views []pool.TenantView, emit func(string, float64)) {
				for _, v := range views {
					emit(v.ID, value(v))
				}
			})
		}
		tenant(fractional(counter("budgetwfd_tenant_billed", "Amount billed to the tenant (authoritative, from settled Reports).")), func(v pool.TenantView) float64 { return v.Billed })
		tenant(fractional(gauge("budgetwfd_tenant_live_spend", "Live billing estimate for the tenant's in-flight executions.")), func(v pool.TenantView) float64 { return v.LiveSpend })
		tenant(counter("budgetwfd_tenant_submissions_total", "Workflow submissions by the tenant."), func(v pool.TenantView) float64 { return float64(v.Submissions) })
		tenant(counter("budgetwfd_tenant_rejected_total", "Submissions rejected by fair-share admission."), func(v pool.TenantView) float64 { return float64(v.Rejected) })
		tenant(gauge("budgetwfd_tenant_active_vms", "VMs currently held by the tenant's executions."), func(v pool.TenantView) float64 { return float64(v.ActiveVMs) })
		tenant(counter("budgetwfd_tenant_reused_vms_total", "Pooled VMs the tenant leased within their paid billing period."), func(v pool.TenantView) float64 { return float64(v.ReusedVMs) })
		tenant(fractional(counter("budgetwfd_tenant_saved_init_cost_total", "Setup fees the tenant avoided through reuse.")), func(v pool.TenantView) float64 { return v.SavedInitCost })
		tenant(fractional(counter("budgetwfd_tenant_idle_waste_seconds_total", "Paid-but-idle VM seconds attributed to the tenant.")), func(v pool.TenantView) float64 { return v.IdleWasteSeconds })
	}
	obs.DeclareRuntime(r)
	return m
}

// status returns the response counter of one HTTP status code.
func (m *metrics) status(code int) *obs.Counter {
	if i := code - 100; i >= 0 && i < len(m.byStatus) {
		return m.byStatus[i]
	}
	return m.statuses.With(strconv.Itoa(code))
}

// observeSpot folds one batch's spot-market activity — VM bookings,
// revocations, rework cost — into the process counters.
func (m *metrics) observeSpot(b exp.Batch) {
	if b.SpotVMs == 0 && b.Revocations == 0 && b.ReworkCost == 0 {
		return
	}
	m.spotVMs.Add(float64(b.SpotVMs))
	m.spotRevocations.Add(float64(b.Revocations))
	m.spotReworkCost.Add(b.ReworkCost)
}
