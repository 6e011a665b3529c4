package dist

import (
	"context"
	"fmt"

	"budgetwf/internal/exp"
	"budgetwf/internal/obs"
)

// ShardRequest is the body of POST /v1/shards: one contiguous unit
// range [Start, End) of a campaign's deterministic enumeration. A unit
// is one cell of the grid, replications included (exp.SweepCells /
// exp.FaultCells). The worker recomputes the full scenario state from
// the spec, so a shard is self-contained — any worker, stateless, can
// evaluate any shard.
type ShardRequest struct {
	Kind       JobKind         `json:"kind"` // sweep or faultSweep
	Sweep      *SweepSpec      `json:"sweep,omitempty"`
	FaultSweep *FaultSweepSpec `json:"faultSweep,omitempty"`
	Start      int             `json:"start"`
	End        int             `json:"end"`
	// Trace asks the worker to export its compute span subtree in the
	// response so the coordinator can stitch it into the job trace.
	Trace bool `json:"trace,omitempty"`
}

// Normalize resolves the payload spec's defaults in place, so a hand-
// written shard request and a coordinator-built one validate alike.
func (r *ShardRequest) Normalize() {
	switch r.Kind {
	case KindSweep:
		if r.Sweep != nil {
			r.Sweep.normalize()
		}
	case KindFaultSweep:
		if r.FaultSweep != nil {
			r.FaultSweep.normalize()
		}
	}
}

// Validate checks the envelope and spec, returning *FieldError values.
func (r *ShardRequest) Validate() error {
	switch r.Kind {
	case KindSweep:
		if r.Sweep == nil {
			return fieldErrf("sweep", "required for kind %q", r.Kind)
		}
		if err := r.Sweep.Validate(); err != nil {
			return prefixField("sweep", err)
		}
	case KindFaultSweep:
		if r.FaultSweep == nil {
			return fieldErrf("faultSweep", "required for kind %q", r.Kind)
		}
		if err := r.FaultSweep.Validate(); err != nil {
			return prefixField("faultSweep", err)
		}
	default:
		return fieldErrf("kind", "unknown shard kind %q (want sweep or faultSweep)", r.Kind)
	}
	if r.Start < 0 || r.End <= r.Start {
		return fieldErrf("start", "want 0 <= start < end, got [%d, %d)", r.Start, r.End)
	}
	return nil
}

// Cells is the size of the campaign's unit grid — the bound on End. It
// is the one place a shard request's grid is sized: the coordinator
// splits [0, Cells) into shards and a worker validates ranges against
// it. The spec must be normalized and valid.
func (r *ShardRequest) Cells() (int, error) {
	switch r.Kind {
	case KindSweep:
		sc, algs, gridK, err := r.Sweep.Scenario()
		if err != nil {
			return 0, err
		}
		return exp.SweepCells(sc, len(algs), gridK), nil
	case KindFaultSweep:
		sc, err := r.FaultSweep.Scenario()
		if err != nil {
			return 0, err
		}
		return exp.FaultCells(sc)
	}
	return 0, fieldErrf("kind", "unknown shard kind %q", r.Kind)
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
	return nil, fieldErrf("kind", "unknown shard kind %q", req.Kind)
}
