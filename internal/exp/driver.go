// The cell driver. Every sweep of this package has one shape: a
// deterministic grid of cells — (algorithm, instance, budget) for
// budget sweeps, (instance, rate) for fault sweeps, (condition,
// instance) for spot sweeps — each planned once and replayed Reps
// times. The enumeration is a pure function of the normalized scenario,
// and every replication's random streams are split by index from
// per-cell parents, so a cell computed on any worker, in any order,
// produces exactly the bytes it produces inside a single-process run.
//
// A *unit* — what a distributed coordinator (internal/dist) schedules,
// ships and journals — is one cell, replications included. The
// single-process entry points are therefore literally "run every unit,
// then aggregate": prep → runCells → that kind's aggregator; the
// distributed halves are prep → runCells over a sub-range, and prep →
// OrderUnits → the same aggregator, which is the whole bit-identity
// argument (pinned by TestShardMergeMatchesMonolithic).
//
// The driver owns what the kinds share — the goroutine pool, the
// cancellation poll, the error policy, the coverage check. Prep, kernel
// and aggregator stay per kind: they differ in what they measure.
package exp

import (
	"context"
	"fmt"
	"sync"
)

// runCells evaluates kernel on cells [start, end) with at most workers
// goroutines and returns the outcomes in cell order. Cancellation is
// polled before each cell and, by the kernel through the ctx it is
// handed, before each replication. The first failure stops the feed
// (cells already handed out finish), and the error returned is that of
// the lowest-numbered failed cell: cells are handed out in ascending
// order, so every cell below a failed one has run, and the answer does
// not depend on which goroutine lost the race. Kernels wrap their errors
// with the cell's coordinates; the driver's own context error is bare.
func runCells[R any](ctx context.Context, workers, start, end int, kernel func(ctx context.Context, cell int) (R, error)) ([]R, error) {
	out := make([]R, end-start)
	var (
		mu       sync.Mutex
		failCell int
		failErr  error
	)
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return failErr != nil
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < min(workers, end-start); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range work {
				err := ctx.Err()
				if err == nil {
					out[c-start], err = kernel(ctx, c)
				}
				if err != nil {
					mu.Lock()
					if failErr == nil || c < failCell {
						failCell, failErr = c, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for c := start; c < end && !failed(); c++ {
		work <- c
	}
	close(work)
	wg.Wait()
	if failErr != nil {
		return nil, failErr
	}
	return out, nil
}

// checkRange validates a unit range against a grid of total cells.
func checkRange(start, end, total int) error {
	if start < 0 || end > total || start > end {
		return fmt.Errorf("exp: unit range [%d, %d) outside [0, %d)", start, end, total)
	}
	return nil
}

// Unit is a mergeable per-cell result that can cross a process
// boundary: SweepUnitResult and FaultUnitResult.
type Unit interface {
	// cell is the unit's index in its grid's enumeration.
	cell() int
	// check reports a payload that cannot be the outcome of reps
	// replications of one cell.
	check(reps int) error
}

// OrderUnits returns the units ordered by cell index, after checking
// that they are exactly the cells [start, end), each once, and that
// every payload is consistent with reps replications per cell. It is
// the acceptance test for unit payloads from outside the process (a
// worker's response, a journalled shard) and the first step of every
// merge, so a payload that would aggregate wrongly is refused where it
// can still be recomputed.
func OrderUnits[U Unit](units []U, start, end, reps int) ([]U, error) {
	if len(units) != end-start {
		return nil, fmt.Errorf("exp: got %d units for range [%d, %d)", len(units), start, end)
	}
	ordered := make([]U, len(units))
	seen := make([]bool, len(units))
	for _, u := range units {
		c := u.cell()
		if c < start || c >= end || seen[c-start] {
			return nil, fmt.Errorf("exp: missing or duplicate unit in [%d, %d) (got %d)", start, end, c)
		}
		if err := u.check(reps); err != nil {
			return nil, fmt.Errorf("exp: unit %d: %w", c, err)
		}
		seen[c-start] = true
		ordered[c-start] = u
	}
	return ordered, nil
}
