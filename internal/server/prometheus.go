package server

import (
	"expvar"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"budgetwf/internal/obs"
	"budgetwf/internal/pool"
)

// Prometheus text exposition (version 0.0.4) for the daemon's metrics.
// The JSON /metrics body remains the default; this renderer is
// selected with ?format=prometheus or an Accept header preferring
// text/plain (see handleMetrics). Everything here reads the same
// counters the JSON path reads — there is no second bookkeeping
// layer — and histograms go through latencyHist.Snapshot so the
// _count, _sum and _bucket series of one scrape are mutually
// consistent.

// prometheusContentType is the exposition-format content type scrapers
// expect.
const prometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// escapeLabelValue escapes a Prometheus label value per the exposition
// format: backslash, double quote and newline.
func escapeLabelValue(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// mapCounters snapshots an expvar.Map of expvar.Int counters into
// sorted (key, value) pairs, so the exposition is deterministic.
func mapCounters(m *expvar.Map) []struct {
	Key   string
	Value int64
} {
	var out []struct {
		Key   string
		Value int64
	}
	m.Do(func(kv expvar.KeyValue) {
		if v, ok := kv.Value.(*expvar.Int); ok {
			out = append(out, struct {
				Key   string
				Value int64
			}{kv.Key, v.Value()})
		}
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// WritePrometheus renders every metric in Prometheus text exposition
// format. Series within a family are sorted by label value.
func (m *Metrics) WritePrometheus(w io.Writer) {
	fmt.Fprintln(w, "# HELP budgetwfd_requests_total Requests received, by endpoint.")
	fmt.Fprintln(w, "# TYPE budgetwfd_requests_total counter")
	for _, c := range mapCounters(m.requests) {
		fmt.Fprintf(w, "budgetwfd_requests_total{endpoint=%q} %d\n", escapeLabelValue(c.Key), c.Value)
	}

	fmt.Fprintln(w, "# HELP budgetwfd_responses_total Responses sent, by HTTP status.")
	fmt.Fprintln(w, "# TYPE budgetwfd_responses_total counter")
	for _, c := range mapCounters(m.statuses) {
		fmt.Fprintf(w, "budgetwfd_responses_total{status=%q} %d\n", escapeLabelValue(c.Key), c.Value)
	}

	fmt.Fprintln(w, "# HELP budgetwfd_schedule_algorithms_total Schedule requests (cache hits included), by algorithm.")
	fmt.Fprintln(w, "# TYPE budgetwfd_schedule_algorithms_total counter")
	for _, c := range mapCounters(m.algorithms) {
		fmt.Fprintf(w, "budgetwfd_schedule_algorithms_total{algorithm=%q} %d\n", escapeLabelValue(c.Key), c.Value)
	}

	fmt.Fprintln(w, "# HELP budgetwfd_estimator_requests_total Simulate/sweep requests, by estimator (mc, analytic).")
	fmt.Fprintln(w, "# TYPE budgetwfd_estimator_requests_total counter")
	for _, c := range mapCounters(m.estimators) {
		fmt.Fprintf(w, "budgetwfd_estimator_requests_total{estimator=%q} %d\n", escapeLabelValue(c.Key), c.Value)
	}

	fmt.Fprintln(w, "# HELP budgetwfd_jobs_total Async-job lifecycle events, by event.")
	fmt.Fprintln(w, "# TYPE budgetwfd_jobs_total counter")
	for _, c := range mapCounters(m.jobs) {
		fmt.Fprintf(w, "budgetwfd_jobs_total{event=%q} %d\n", escapeLabelValue(c.Key), c.Value)
	}

	if m.jobStates != nil {
		fmt.Fprintln(w, "# HELP budgetwfd_jobs Retained async jobs, by state.")
		fmt.Fprintln(w, "# TYPE budgetwfd_jobs gauge")
		states := m.jobStates()
		keys := make([]string, 0, len(states))
		for k := range states {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "budgetwfd_jobs{state=%q} %d\n", escapeLabelValue(k), states[k])
		}
	}

	fmt.Fprintln(w, "# HELP budgetwfd_shards_served_total Shards evaluated via POST /v1/shards.")
	fmt.Fprintln(w, "# TYPE budgetwfd_shards_served_total counter")
	fmt.Fprintf(w, "budgetwfd_shards_served_total %d\n", m.shards.Value())

	fmt.Fprintln(w, "# HELP budgetwfd_spot_vms_total VMs booked on spot (preemptible) categories by this process's executions.")
	fmt.Fprintln(w, "# TYPE budgetwfd_spot_vms_total counter")
	fmt.Fprintf(w, "budgetwfd_spot_vms_total %g\n", m.spotVMs.Value())
	fmt.Fprintln(w, "# HELP budgetwfd_spot_revocations_total Spot VM revocations suffered by this process's executions.")
	fmt.Fprintln(w, "# TYPE budgetwfd_spot_revocations_total counter")
	fmt.Fprintf(w, "budgetwfd_spot_revocations_total %g\n", m.spotRevocations.Value())
	fmt.Fprintln(w, "# HELP budgetwfd_spot_rework_cost_total Rework cost paid for revocations: wasted spot billing plus replacement init fees.")
	fmt.Fprintln(w, "# TYPE budgetwfd_spot_rework_cost_total counter")
	fmt.Fprintf(w, "budgetwfd_spot_rework_cost_total %g\n", m.spotReworkCost.Value())

	m.writePrometheusTraces(w)

	m.writePrometheusCluster(w)

	fmt.Fprintln(w, "# HELP budgetwfd_panics_total Handler panics recovered by the middleware.")
	fmt.Fprintln(w, "# TYPE budgetwfd_panics_total counter")
	fmt.Fprintf(w, "budgetwfd_panics_total %d\n", m.panics.Value())

	m.writePrometheusHistograms(w)

	fmt.Fprintln(w, "# HELP budgetwfd_cache_hits_total Plan-cache hits.")
	fmt.Fprintln(w, "# TYPE budgetwfd_cache_hits_total counter")
	fmt.Fprintf(w, "budgetwfd_cache_hits_total %d\n", m.cache.Hits())
	fmt.Fprintln(w, "# HELP budgetwfd_cache_body_hits_total Plan-cache hits answered from a body alias, without parsing the request (a subset of budgetwfd_cache_hits_total).")
	fmt.Fprintln(w, "# TYPE budgetwfd_cache_body_hits_total counter")
	fmt.Fprintf(w, "budgetwfd_cache_body_hits_total %d\n", m.cache.BodyHits())
	fmt.Fprintln(w, "# HELP budgetwfd_cache_misses_total Plan-cache misses.")
	fmt.Fprintln(w, "# TYPE budgetwfd_cache_misses_total counter")
	fmt.Fprintf(w, "budgetwfd_cache_misses_total %d\n", m.cache.Misses())
	fmt.Fprintln(w, "# HELP budgetwfd_cache_entries Plan-cache resident entries.")
	fmt.Fprintln(w, "# TYPE budgetwfd_cache_entries gauge")
	fmt.Fprintf(w, "budgetwfd_cache_entries %d\n", m.cache.Len())
	fmt.Fprintln(w, "# HELP budgetwfd_cache_aliases Request-body digests aliased to resident plan-cache entries.")
	fmt.Fprintln(w, "# TYPE budgetwfd_cache_aliases gauge")
	fmt.Fprintf(w, "budgetwfd_cache_aliases %d\n", m.cache.Aliases())
	fmt.Fprintln(w, "# HELP budgetwfd_cache_enabled Whether the plan cache is enabled (1) or disabled (0).")
	fmt.Fprintln(w, "# TYPE budgetwfd_cache_enabled gauge")
	enabled := 0
	if m.cache.Enabled() {
		enabled = 1
	}
	fmt.Fprintf(w, "budgetwfd_cache_enabled %d\n", enabled)

	fmt.Fprintln(w, "# HELP budgetwfd_pool_queue_depth Admitted requests waiting for a worker.")
	fmt.Fprintln(w, "# TYPE budgetwfd_pool_queue_depth gauge")
	fmt.Fprintf(w, "budgetwfd_pool_queue_depth %d\n", m.pool.queueDepth())
	fmt.Fprintln(w, "# HELP budgetwfd_pool_in_flight Requests currently executing on a worker.")
	fmt.Fprintln(w, "# TYPE budgetwfd_pool_in_flight gauge")
	fmt.Fprintf(w, "budgetwfd_pool_in_flight %d\n", m.pool.inFlightCount())

	m.writePrometheusSharedPool(w)
}

// writePrometheusTraces renders the distributed-tracing families:
// spans exported into shard responses (a worker-side counter), spans
// stitched into job traces (coordinator-side, when the cluster gauge
// is installed), and spans dropped at the per-trace node cap.
func (m *Metrics) writePrometheusTraces(w io.Writer) {
	fmt.Fprintln(w, "# HELP budgetwfd_trace_spans_exported_total Spans exported into shard responses for coordinator-side stitching.")
	fmt.Fprintln(w, "# TYPE budgetwfd_trace_spans_exported_total counter")
	fmt.Fprintf(w, "budgetwfd_trace_spans_exported_total %d\n", m.traceExported.Value())
	var stitched int64
	if m.cluster != nil {
		stitched = m.cluster().Coordinator.SpansStitched
	}
	fmt.Fprintln(w, "# HELP budgetwfd_trace_spans_stitched_total Worker spans grafted into stitched job traces.")
	fmt.Fprintln(w, "# TYPE budgetwfd_trace_spans_stitched_total counter")
	fmt.Fprintf(w, "budgetwfd_trace_spans_stitched_total %d\n", stitched)
	fmt.Fprintln(w, "# HELP budgetwfd_trace_spans_dropped_total Spans/events discarded at the per-trace node cap, process-wide.")
	fmt.Fprintln(w, "# TYPE budgetwfd_trace_spans_dropped_total counter")
	fmt.Fprintf(w, "budgetwfd_trace_spans_dropped_total %d\n", obs.DroppedTotal())
}

// writePrometheusCluster renders the cluster control-plane families:
// worker membership, shard-dispatch counters, and the journal's
// durability posture. Absent entirely until the gauge is installed.
func (m *Metrics) writePrometheusCluster(w io.Writer) {
	if m.cluster == nil {
		return
	}
	cs := m.cluster()
	scalars := []struct {
		name, help, typ string
		value           string
	}{
		{"budgetwfd_workers_live", "Registered workers with a heartbeat inside the TTL.", "gauge", fmt.Sprintf("%d", cs.WorkersLive)},
		{"budgetwfd_workers_suspect", "Registered workers past their heartbeat TTL.", "gauge", fmt.Sprintf("%d", cs.WorkersSuspect)},
		{"budgetwfd_shards_dispatched_total", "Remote shard attempts issued by the coordinator.", "counter", fmt.Sprintf("%d", cs.Coordinator.Dispatched)},
		{"budgetwfd_shards_requeued_total", "Failed shard attempts fed back into the dispatch queue.", "counter", fmt.Sprintf("%d", cs.Coordinator.Requeued)},
		{"budgetwfd_shards_stolen_total", "Slow or orphaned shards speculatively re-issued to another worker.", "counter", fmt.Sprintf("%d", cs.Coordinator.Stolen)},
		{"budgetwfd_shards_duplicate_dropped_total", "Shard results dropped because their units were already covered.", "counter", fmt.Sprintf("%d", cs.Coordinator.LateDuplicates+cs.LateShards)},
		{"budgetwfd_shards_local_fallback_total", "Shards that exhausted remote attempts and ran on the coordinator.", "counter", fmt.Sprintf("%d", cs.Coordinator.LocalFallbacks)},
	}
	for _, s := range scalars {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", s.name, s.help, s.name, s.typ, s.name, s.value)
	}
	if !cs.HasJournal {
		return
	}
	js := cs.Journal
	fmt.Fprintln(w, "# HELP budgetwfd_journal_tail_records Journal records a restart would replay on top of the snapshot.")
	fmt.Fprintln(w, "# TYPE budgetwfd_journal_tail_records gauge")
	fmt.Fprintf(w, "budgetwfd_journal_tail_records %d\n", js.TailRecords)
	fmt.Fprintln(w, "# HELP budgetwfd_journal_tail_bytes Size of the live journal tail.")
	fmt.Fprintln(w, "# TYPE budgetwfd_journal_tail_bytes gauge")
	fmt.Fprintf(w, "budgetwfd_journal_tail_bytes %d\n", js.TailBytes)
	fmt.Fprintln(w, "# HELP budgetwfd_journal_snapshot_bytes Size of the last journal snapshot.")
	fmt.Fprintln(w, "# TYPE budgetwfd_journal_snapshot_bytes gauge")
	fmt.Fprintf(w, "budgetwfd_journal_snapshot_bytes %d\n", js.SnapshotBytes)
	fmt.Fprintln(w, "# HELP budgetwfd_journal_snapshot_age_seconds Seconds since the last journal snapshot (-1 if none).")
	fmt.Fprintln(w, "# TYPE budgetwfd_journal_snapshot_age_seconds gauge")
	if js.SnapshotTime.IsZero() {
		fmt.Fprintln(w, "budgetwfd_journal_snapshot_age_seconds -1")
	} else {
		fmt.Fprintf(w, "budgetwfd_journal_snapshot_age_seconds %g\n", time.Since(js.SnapshotTime).Seconds())
	}
}

// writePrometheusSharedPool renders the multi-tenant shared-pool
// families: pool-wide counters/gauges and the per-tenant billing
// ledgers, labelled by tenant ID and sorted for a deterministic
// exposition. Absent entirely when the pool is disabled.
func (m *Metrics) writePrometheusSharedPool(w io.Writer) {
	if m.poolStats == nil {
		return
	}
	st := m.poolStats()
	poolScalars := []struct {
		name, help, typ string
		value           string
	}{
		{"budgetwfd_shared_pool_submissions_total", "Workflow submissions accepted by the shared pool.", "counter", fmt.Sprintf("%d", st.Submissions)},
		{"budgetwfd_shared_pool_completed_total", "Submissions settled successfully.", "counter", fmt.Sprintf("%d", st.Completed)},
		{"budgetwfd_shared_pool_rejected_total", "Submissions rejected by fair-share admission.", "counter", fmt.Sprintf("%d", st.Rejected)},
		{"budgetwfd_shared_pool_failed_total", "Submissions that failed during execution.", "counter", fmt.Sprintf("%d", st.Failed)},
		{"budgetwfd_shared_pool_provisioned_total", "Fresh VMs provisioned.", "counter", fmt.Sprintf("%d", st.Provisioned)},
		{"budgetwfd_shared_pool_reused_total", "Idle VMs leased to a new submission within their paid billing period.", "counter", fmt.Sprintf("%d", st.Reused)},
		{"budgetwfd_shared_pool_deprovisioned_total", "VMs released at (or below) the time-to-shutdown threshold.", "counter", fmt.Sprintf("%d", st.Deprovisioned)},
		{"budgetwfd_shared_pool_active_vms", "VMs currently held by running submissions.", "gauge", fmt.Sprintf("%d", st.ActiveVMs)},
		{"budgetwfd_shared_pool_idle_vms", "Idle VMs parked inside an already-paid billing period.", "gauge", fmt.Sprintf("%d", st.IdleVMs)},
		{"budgetwfd_shared_pool_billed_total", "Total amount billed across all tenants.", "counter", fmt.Sprintf("%g", st.BilledTotal)},
		{"budgetwfd_shared_pool_saved_init_cost_total", "Setup fees avoided by VM reuse.", "counter", fmt.Sprintf("%g", st.SavedInitCost)},
		{"budgetwfd_shared_pool_idle_waste_seconds_total", "Paid-but-idle VM seconds.", "counter", fmt.Sprintf("%g", st.IdleWasteSeconds)},
		{"budgetwfd_shared_pool_virtual_now_seconds", "The pool's virtual-time frontier.", "gauge", fmt.Sprintf("%g", st.Now)},
	}
	for _, s := range poolScalars {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", s.name, s.help, s.name, s.typ, s.name, s.value)
	}

	tenants := m.poolTenants()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].ID < tenants[j].ID })
	tenantFamilies := []struct {
		name, help, typ string
		value           func(v pool.TenantView) string
	}{
		{"budgetwfd_tenant_billed", "Amount billed to the tenant (authoritative, from settled Reports).", "counter",
			func(v pool.TenantView) string { return fmt.Sprintf("%g", v.Billed) }},
		{"budgetwfd_tenant_live_spend", "Live billing estimate for the tenant's in-flight executions.", "gauge",
			func(v pool.TenantView) string { return fmt.Sprintf("%g", v.LiveSpend) }},
		{"budgetwfd_tenant_submissions_total", "Workflow submissions by the tenant.", "counter",
			func(v pool.TenantView) string { return fmt.Sprintf("%d", v.Submissions) }},
		{"budgetwfd_tenant_rejected_total", "Submissions rejected by fair-share admission.", "counter",
			func(v pool.TenantView) string { return fmt.Sprintf("%d", v.Rejected) }},
		{"budgetwfd_tenant_active_vms", "VMs currently held by the tenant's executions.", "gauge",
			func(v pool.TenantView) string { return fmt.Sprintf("%d", v.ActiveVMs) }},
		{"budgetwfd_tenant_reused_vms_total", "Pooled VMs the tenant leased within their paid billing period.", "counter",
			func(v pool.TenantView) string { return fmt.Sprintf("%d", v.ReusedVMs) }},
		{"budgetwfd_tenant_saved_init_cost_total", "Setup fees the tenant avoided through reuse.", "counter",
			func(v pool.TenantView) string { return fmt.Sprintf("%g", v.SavedInitCost) }},
		{"budgetwfd_tenant_idle_waste_seconds_total", "Paid-but-idle VM seconds attributed to the tenant.", "counter",
			func(v pool.TenantView) string { return fmt.Sprintf("%g", v.IdleWasteSeconds) }},
	}
	for _, f := range tenantFamilies {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, v := range tenants {
			fmt.Fprintf(w, "%s{tenant=%q} %s\n", f.name, escapeLabelValue(v.ID), f.value(v))
		}
	}
}

// writePrometheusHistograms renders the per-endpoint latency
// histograms as one Prometheus histogram family with an endpoint
// label, in seconds, with the cumulative _bucket/_sum/_count series
// the format requires.
func (m *Metrics) writePrometheusHistograms(w io.Writer) {
	type entry struct {
		endpoint string
		snap     histSnapshot
	}
	var hists []entry
	m.latencies.Do(func(kv expvar.KeyValue) {
		if h, ok := kv.Value.(*latencyHist); ok {
			hists = append(hists, entry{kv.Key, h.Snapshot()})
		}
	})
	sort.Slice(hists, func(i, j int) bool { return hists[i].endpoint < hists[j].endpoint })

	fmt.Fprintln(w, "# HELP budgetwfd_request_duration_seconds Request latency, by endpoint.")
	fmt.Fprintln(w, "# TYPE budgetwfd_request_duration_seconds histogram")
	for _, e := range hists {
		ep := escapeLabelValue(e.endpoint)
		cum := uint64(0)
		for i, boundMs := range latencyBoundsMs {
			cum += e.snap.Buckets[i]
			fmt.Fprintf(w, "budgetwfd_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n",
				ep, formatSeconds(boundMs/1e3), cum)
		}
		cum += e.snap.Buckets[len(latencyBoundsMs)]
		fmt.Fprintf(w, "budgetwfd_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", ep, cum)
		fmt.Fprintf(w, "budgetwfd_request_duration_seconds_sum{endpoint=%q} %g\n", ep, e.snap.SumMs/1e3)
		fmt.Fprintf(w, "budgetwfd_request_duration_seconds_count{endpoint=%q} %d\n", ep, e.snap.Count)
	}
}

// formatSeconds renders a bucket bound the way Prometheus clients
// expect: a plain decimal with no exponent and no trailing zeros
// ("0.001", "0.25", "5").
func formatSeconds(s float64) string {
	out := fmt.Sprintf("%.3f", s)
	out = strings.TrimRight(out, "0")
	out = strings.TrimSuffix(out, ".")
	return out
}
