package main

import (
	"fmt"
	"io"
	"time"

	"budgetwf/internal/obs"
)

// Per-phase latency from a stitched job trace (-jobs mode): the
// coordinator's GET /v1/traces/{traceId} returns the job's span tree
// with each worker's compute subtree grafted under its dispatch span,
// so the dispatch overhead (queueing, HTTP, retries) separates cleanly
// from the worker-side compute time, and the root's tail past the last
// shard is the merge.

// jobPhases is the breakdown parsed from one stitched job trace.
type jobPhases struct {
	shards      int           // stitched shard spans contributing
	dispatchP50 time.Duration // median shard overhead beyond worker compute
	computeP50  time.Duration // median worker compute duration
	merge       time.Duration // root tail after the last shard finished
}

// extractPhases walks the job trace: every "shard" child of the root
// with a grafted "compute" subtree contributes one dispatch/compute
// sample; shards that ran locally (no remote subtree) are skipped.
func extractPhases(tr *obs.TraceJSON) (jobPhases, error) {
	if tr == nil || tr.Root == nil {
		return jobPhases{}, fmt.Errorf("empty trace")
	}
	var dispMs, compMs []float64
	lastEndUs := 0.0
	for _, c := range tr.Root.Children {
		if c.Name != "shard" {
			continue
		}
		if end := c.StartUs + c.DurUs; end > lastEndUs {
			lastEndUs = end
		}
		computeUs := 0.0
		for _, cc := range c.Children {
			if cc.Name == "compute" {
				computeUs += cc.DurUs
			}
		}
		if computeUs <= 0 || computeUs > c.DurUs {
			continue
		}
		compMs = append(compMs, computeUs/1e3)
		dispMs = append(dispMs, (c.DurUs-computeUs)/1e3)
	}
	if len(compMs) == 0 {
		return jobPhases{}, fmt.Errorf("no stitched shard spans in trace %q", tr.ID)
	}
	merge := fromMs((tr.Root.DurUs - lastEndUs) / 1e3)
	if merge < 0 {
		merge = 0
	}
	return jobPhases{
		shards:      len(compMs),
		dispatchP50: percentile(dispMs, 50),
		computeP50:  percentile(compMs, 50),
		merge:       merge,
	}, nil
}

// reportJobPhases fetches one sampled job's stitched trace and prints
// the per-phase breakdown. A missing or unstitched trace (the ring
// evicted it, or the job ran without remote workers) is reported as a
// note, never as an error — the phases are a bonus, not the result.
func reportJobPhases(stdout io.Writer, baseURL, traceID string) {
	var tr obs.TraceJSON
	if _, err := get(baseURL+"/v1/traces/"+traceID, &tr); err != nil {
		fmt.Fprintf(stdout, "  phases: trace %s unavailable (%v)\n", traceID, err)
		return
	}
	ph, err := extractPhases(&tr)
	if err != nil {
		fmt.Fprintf(stdout, "  phases: %v (job ran without remote workers?)\n", err)
		return
	}
	fmt.Fprintf(stdout, "  phases (trace %s, %d stitched shards): dispatch p50=%v compute p50=%v merge=%v\n",
		traceID, ph.shards, ph.dispatchP50, ph.computeP50, ph.merge)
}
