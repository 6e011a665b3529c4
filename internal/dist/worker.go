package dist

import (
	"context"
	"fmt"

	"budgetwf/internal/exp"
	"budgetwf/internal/obs"
	"budgetwf/internal/reqerr"
)

// ShardRequest is the body of POST /v1/shards: one contiguous unit
// range [Start, End) of a campaign's deterministic enumeration. A unit
// is one cell of the grid, replications included (exp.SweepCells /
// exp.FaultCells). The worker recomputes the full scenario state from
// the spec, so a shard is self-contained — any worker, stateless, can
// evaluate any shard.
type ShardRequest struct {
	// JobSpec is the campaign, kind sweep or faultSweep (a figure job is
	// three sweeps, sharded one at a time). Normalize is the job's.
	JobSpec
	Start int `json:"start"`
	End   int `json:"end"`
	// Trace asks the worker to export its compute span subtree in the
	// response so the coordinator can stitch it into the job trace.
	Trace bool `json:"trace,omitempty"`
}

// Validate checks the (normalized) campaign and the range against its
// grid.
func (r *ShardRequest) Validate() error {
	cells, err := r.Cells()
	switch {
	case err != nil:
		return err
	case r.Start < 0 || r.End <= r.Start:
		return reqerr.Invalid("start", "want 0 <= start < end, got [%d, %d)", r.Start, r.End)
	case r.End > cells:
		return reqerr.Unusable("end", "shard range [%d, %d) exceeds the grid's %d units", r.Start, r.End, cells)
	}
	return nil
}

// Cells validates the (normalized) campaign and sizes its unit grid —
// the bound on End. It is the one place a shard request's grid is
// sized: the coordinator splits [0, Cells) into shards and a worker
// validates ranges against it.
func (r *ShardRequest) Cells() (int, error) {
	if _, err := r.selected(); err != nil {
		return 0, err
	}
	switch r.Kind {
	case KindSweep:
		sc, algs, gridK, err := r.Sweep.Scenario()
		if err != nil {
			return 0, reqerr.Under("sweep", err)
		}
		return exp.SweepCells(sc, len(algs), gridK), nil
	case KindFaultSweep:
		sc, err := r.FaultSweep.Scenario()
		if err != nil {
			return 0, reqerr.Under("faultSweep", err)
		}
		cells, err := exp.FaultCells(sc)
		return cells, reqerr.Under("faultSweep", err)
	}
	return 0, reqerr.Invalid("kind", "unknown shard kind %q (want sweep or faultSweep)", r.Kind)
}

// covers reports whether resp is a well-formed answer to the unit range
// [start, end) of r's campaign: units of r's kind only, exactly the
// cells of the range, each payload consistent with the spec's
// replication count (exp.OrderUnits). Both places a payload enters from
// outside the process — a worker's response, a journalled shard — ask
// it, so what the merge would refuse or mis-aggregate is re-run instead.
func (r *ShardRequest) covers(resp *ShardResponse, start, end int) error {
	var err error
	switch {
	case r.Kind == KindSweep && len(resp.FaultUnits) == 0:
		_, err = exp.OrderUnits(resp.SweepUnits, start, end, r.Sweep.Replications)
	case r.Kind == KindFaultSweep && len(resp.SweepUnits) == 0:
		_, err = exp.OrderUnits(resp.FaultUnits, start, end, r.FaultSweep.Replications)
	default:
		err = fmt.Errorf("dist: units of the wrong kind for a %s shard", r.Kind)
	}
	return err
}

// ShardResponse carries the shard's units back to the coordinator.
// Exactly one slice is populated, matching the request kind.
// encoding/json round-trips float64 exactly, so the transport cannot
// perturb the merge.
type ShardResponse struct {
	SweepUnits []exp.SweepUnitResult `json:"sweepUnits,omitempty"`
	FaultUnits []exp.FaultUnitResult `json:"faultUnits,omitempty"`
	// Trace is the worker's exported compute subtree (when the request
	// set Trace): timestamps are the worker's own monotonic anchors,
	// which the coordinator's stitcher aligns. The coordinator strips
	// it before merging/journalling the payload.
	Trace *obs.SpanWire `json:"trace,omitempty"`
}

// absorb appends o's units to r's.
func (r *ShardResponse) absorb(o *ShardResponse) {
	r.SweepUnits = append(r.SweepUnits, o.SweepUnits...)
	r.FaultUnits = append(r.FaultUnits, o.FaultUnits...)
}

// ExecuteShard evaluates the shard on the local machine with at most
// workers goroutines (0 means GOMAXPROCS). It is both the worker half
// of POST /v1/shards and the coordinator's local fallback, which is
// what makes the "a killed worker never loses a shard" guarantee
// closed: work that exhausts its remote attempts runs here.
func ExecuteShard(ctx context.Context, req *ShardRequest, workers int) (*ShardResponse, error) {
	switch req.Kind {
	case KindSweep:
		sc, algs, gridK, err := req.Sweep.Scenario()
		if err != nil {
			return nil, err
		}
		sc.Workers = workers
		units, err := exp.RunSweepUnitsCtx(ctx, sc, algs, gridK, req.Start, req.End)
		if err != nil {
			return nil, err
		}
		return &ShardResponse{SweepUnits: units}, nil
	case KindFaultSweep:
		sc, err := req.FaultSweep.Scenario()
		if err != nil {
			return nil, err
		}
		sc.Workers = workers
		units, err := exp.RunFaultSweepUnitsCtx(ctx, sc, req.Start, req.End)
		if err != nil {
			return nil, err
		}
		return &ShardResponse{FaultUnits: units}, nil
	}
	return nil, reqerr.Invalid("kind", "unknown shard kind %q", req.Kind)
}
