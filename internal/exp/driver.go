// The cell driver. Every sweep of this package has one shape: a
// deterministic grid of cells — (algorithm, instance, budget) for
// budget sweeps, (instance, rate) for fault sweeps, a figure's three
// family sweeps end to end — each planned once and replayed Reps
// times. The enumeration is a pure function of the normalized scenario,
// and every replication's random streams are split by index from
// per-cell parents, so a cell computed on any worker, in any order,
// produces exactly the bytes it produces inside a single-process run.
//
// A *unit* — what a distributed coordinator (internal/dist) schedules,
// ships and journals — is one cell, replications included. The
// single-process entry points are therefore literally "run every unit,
// then aggregate": prep → runCells → that kind's aggregator; the
// distributed halves are a Campaign's Run over a sub-range (prep →
// runCells) and its Merge (OrderUnits → prep → the same aggregator),
// which is the whole bit-identity argument (pinned by
// TestShardMergeMatchesMonolithic).
//
// The driver owns what the kinds share — the goroutine pool, the
// cancellation poll, the error policy, the coverage check. Prep, kernel
// and aggregator stay per kind: they differ in what they measure.
package exp

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// runCells evaluates kernel on cells [start, end) with at most workers
// goroutines (GOMAXPROCS when workers ≤ 0) and returns the outcomes in
// cell order. Cancellation is polled before each cell and, by the
// kernel through the ctx it is handed, before each replication. The
// first failure stops the feed (cells already handed out finish), and
// the error returned is that of the lowest-numbered failed cell: cells
// are handed out in ascending order, so every cell below a failed one
// has run, and the answer does not depend on which goroutine lost the
// race. Kernels wrap their errors with the cell's coordinates; the
// driver's own context error is bare.
func runCells[R any](ctx context.Context, workers, start, end int, kernel func(ctx context.Context, cell int) (R, error)) ([]R, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
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

// kernel is a materialized campaign: one cell's evaluation.
type kernel interface {
	runCell(ctx context.Context, cell int) (Unit, error)
}

// runAll is every single-process entry point: materialize once, run
// every cell, and hand both to the kind's aggregator.
func runAll[K kernel](ctx context.Context, workers, cells int, prep func() (K, error)) (K, []Unit, error) {
	k, err := prep()
	if err != nil {
		return k, nil, err
	}
	units, err := runCells(ctx, workers, 0, cells, k.runCell)
	return k, units, err
}

// runRange is every kind's Run: check the range against the grid of
// cells, materialize, and run the range.
func runRange[K kernel](ctx context.Context, workers, start, end, cells int, prep func() (K, error)) ([]Unit, error) {
	if err := checkRange(start, end, cells); err != nil {
		return nil, err
	}
	k, err := prep()
	if err != nil {
		return nil, err
	}
	return runCells(ctx, workers, start, end, k.runCell)
}

// orderAll is the first half of every kind's Merge: the units of the
// whole grid in cell order (OrderUnits), and the materialized campaign
// that folds them.
func orderAll[K any](units []Unit, c Campaign, prep func() (K, error)) (K, []Unit, error) {
	var k K
	ordered, err := OrderUnits(units, 0, c.Cells(), c.Reps())
	if err != nil {
		return k, nil, err
	}
	k, err = prep()
	return k, ordered, err
}

// Unit is the outcome of one cell of any campaign, replications
// included: what a kernel returns, what an aggregator folds, and what a
// distributed coordinator ships and journals. NumVMs and PlanSeconds are
// a budget sweep's plan facts; the other kinds leave them zero, and
// absent from the wire.
type Unit struct {
	Unit        int     `json:"unit"`
	NumVMs      float64 `json:"numVMs,omitempty"`
	PlanSeconds float64 `json:"planSeconds,omitempty"`
	Batch
}

// Campaign is a resolved campaign — a Sweep, FaultSweep or FigureSweeps
// — as a distributed coordinator sees it: a grid of Cells
// cells, each replicated Reps times, and a way to run any range of them.
// Resolving one materializes nothing; Run materializes what its range
// needs. Each kind merges its units with its own typed Merge.
type Campaign interface {
	Cells() int
	Reps() int
	// Run evaluates cells [start, end) with at most workers goroutines
	// and returns their units in cell order.
	Run(ctx context.Context, workers, start, end int) ([]Unit, error)
}

// OrderUnits returns the units ordered by cell index, after checking
// that they are exactly the cells [start, end), each once, and that
// every payload is consistent with reps replications per cell. It is
// the acceptance test for unit payloads from outside the process (a
// worker's response, a journalled shard) and the first step of every
// merge, so a payload that would aggregate wrongly is refused where it
// can still be recomputed.
func OrderUnits(units []Unit, start, end, reps int) ([]Unit, error) {
	if len(units) != end-start {
		return nil, fmt.Errorf("exp: got %d units for range [%d, %d)", len(units), start, end)
	}
	ordered := make([]Unit, len(units))
	seen := make([]bool, len(units))
	for _, u := range units {
		c := u.Unit
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
