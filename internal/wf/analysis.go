package wf

import (
	"fmt"
	"slices"
)

// TopoOrder returns the task IDs in a topological order (Kahn's
// algorithm). Ties are broken by ascending task ID so that the order is
// deterministic. It returns an error if the graph has a cycle. The
// order is computed once per index; each call returns a fresh copy.
func (w *Workflow) TopoOrder() ([]TaskID, error) {
	topo, err := w.topo()
	if err != nil {
		return nil, err
	}
	order := make([]TaskID, len(topo))
	for i, t := range topo {
		order[i] = TaskID(t)
	}
	return order, nil
}

// topo returns the index's topological order, read-only, or the
// error that the graph has a cycle.
func (w *Workflow) topo() ([]int, error) {
	x := w.index()
	if n := len(w.tasks); len(x.topo) != n {
		return nil, fmt.Errorf("wf: workflow %q has a cycle (%d of %d tasks ordered)", w.Name, len(x.topo), n)
	}
	return x.topo, nil
}

// Levels partitions tasks into levels of independent tasks, as used by
// BDT: the level of a task is the length (in hops) of the longest path
// from any entry task to it. Tasks within one level are pairwise
// independent. It returns the per-task level and the total number of
// levels, or an error if the graph has a cycle.
func (w *Workflow) Levels() (level []int, numLevels int, err error) {
	order, err := w.topo()
	if err != nil {
		return nil, 0, err
	}
	level = make([]int, len(w.tasks))
	maxLevel := -1
	in := w.In()
	for _, id := range order {
		l := 0
		for _, e := range in.Of(TaskID(id)) {
			from := int(w.edges[e].From)
			if level[from]+1 > l {
				l = level[from] + 1
			}
		}
		level[id] = l
		if l > maxLevel {
			maxLevel = l
		}
	}
	return level, maxLevel + 1, nil
}

// BottomLevels computes the HEFT upward rank of every task:
//
//	rank(T) = exec(T) + max over successors S of (comm(T,S) + rank(S))
//
// where exec and comm are caller-provided estimators (typically the
// conservative weight divided by the mean speed, and the edge size
// divided by the bandwidth, per §IV-A). Exit tasks have
// rank = exec(T). It returns an error if the graph has a cycle.
func (w *Workflow) BottomLevels(exec func(Task) float64, comm func(Edge) float64) ([]float64, error) {
	order, err := w.topo()
	if err != nil {
		return nil, err
	}
	rank := make([]float64, len(w.tasks))
	out := w.Out()
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		best := 0.0
		for _, e := range out.Of(TaskID(id)) {
			edge := w.edges[e]
			v := comm(edge) + rank[edge.To]
			if v > best {
				best = v
			}
		}
		rank[id] = exec(w.tasks[id]) + best
	}
	return rank, nil
}

// CriticalPathLength returns the length of the longest path through the
// DAG under the given estimators (entry to exit, inclusive of task
// executions and inter-task communications).
func (w *Workflow) CriticalPathLength(exec func(Task) float64, comm func(Edge) float64) (float64, error) {
	ranks, err := w.BottomLevels(exec, comm)
	if err != nil {
		return 0, err
	}
	best := 0.0
	for _, r := range ranks {
		if r > best {
			best = r
		}
	}
	return best, nil
}

// RankOrder returns task IDs sorted by decreasing value of rank, with
// ties broken by ascending ID. HEFT processes tasks in this order;
// because rank(T) > rank(S) whenever T precedes S (for positive
// estimates), the order is also topological.
func RankOrder(rank []float64) []TaskID {
	ids := make([]TaskID, len(rank))
	for i := range ids {
		ids[i] = TaskID(i)
	}
	// The generic stable sort runs sort.SliceStable's algorithm without
	// its reflective swaps, so it orders even NaN ranks as that did.
	slices.SortStableFunc(ids, func(a, b TaskID) int {
		if ra, rb := rank[a], rank[b]; ra != rb {
			if ra > rb {
				return -1
			}
			return 1
		}
		return int(a - b)
	})
	return ids
}

// Validate checks structural integrity of the workflow: at least one
// task, acyclicity, valid weight distributions, and non-negative
// external I/O volumes. Edge endpoint and size validity is enforced at
// AddEdge time.
func (w *Workflow) Validate() error {
	if len(w.tasks) == 0 {
		return fmt.Errorf("wf: workflow %q has no tasks", w.Name)
	}
	for _, t := range w.tasks {
		if err := t.Weight.Validate(); err != nil {
			return fmt.Errorf("wf: task %d (%s): %w", t.ID, t.Name, err)
		}
		if t.ExternalIn < 0 || t.ExternalOut < 0 {
			return fmt.Errorf("wf: task %d (%s): negative external I/O", t.ID, t.Name)
		}
	}
	_, err := w.topo()
	return err
}
