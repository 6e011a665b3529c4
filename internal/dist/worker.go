package dist

import (
	"budgetwf/internal/exp"
	"budgetwf/internal/obs"
	"budgetwf/internal/reqerr"
)

// ShardRequest is the body of POST /v1/shards: one contiguous unit
// range [Start, End) of a campaign's deterministic enumeration. A unit
// is one cell of the grid, replications included. The worker resolves
// the campaign from the spec and recomputes the state its range needs,
// so a shard is self-contained — any worker, stateless, can evaluate
// any shard.
type ShardRequest struct {
	// JobSpec is the campaign, of any kind. Normalize is the job's.
	JobSpec
	Start int `json:"start"`
	End   int `json:"end"`
	// Trace asks the worker to export its compute span subtree in the
	// response so the coordinator can stitch it into the job trace.
	Trace bool `json:"trace,omitempty"`
}

// Resolve validates the (normalized) campaign and the range against its
// grid, and returns the campaign that evaluates the range.
func (r *ShardRequest) Resolve() (*Campaign, error) {
	c, err := r.JobSpec.Resolve()
	switch {
	case err != nil:
		return nil, err
	case r.Start < 0 || r.End <= r.Start:
		return nil, reqerr.Invalid("start", "want 0 <= start < end, got [%d, %d)", r.Start, r.End)
	case r.End > c.Cells():
		return nil, reqerr.Unusable("end", "shard range [%d, %d) exceeds the grid's %d units", r.Start, r.End, c.Cells())
	}
	return c, nil
}

// ShardResponse carries the shard's units back to the coordinator.
// encoding/json round-trips float64 exactly, so the transport cannot
// perturb the merge.
type ShardResponse struct {
	Units []exp.Unit `json:"units"`
	// Trace is the worker's exported compute subtree (when the request
	// set Trace): timestamps are the worker's own monotonic anchors,
	// which the coordinator's stitcher aligns. The coordinator strips
	// it before merging/journalling the payload.
	Trace *obs.SpanWire `json:"trace,omitempty"`
}
