// Package wf implements the application model of the paper (§III-A):
// a scientific workflow is a DAG G = (V, E) whose vertices are
// non-preemptive tasks with stochastic weights (number of instructions,
// Gaussian with mean w̄ and deviation σ) and whose edges carry data
// transfers of known size. Entry tasks additionally read input data
// from the external world through the datacenter, and exit tasks write
// final results back to it; those volumes drive the datacenter transfer
// cost of Equation (2).
//
// The package provides construction, validation, structural analysis
// (topological order, levels, bottom levels) and JSON (de)serialization.
package wf

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"budgetwf/internal/stoch"
)

// TaskID identifies a task within one workflow. IDs are dense indices
// assigned in insertion order, which lets analyses use plain slices.
type TaskID int

// Task is one vertex of the workflow DAG.
type Task struct {
	// ID is the dense index of the task inside its workflow.
	ID TaskID
	// Name is a human-readable label (e.g. "mProject_3"). Names need
	// not be unique, but generators keep them unique for debugging.
	Name string
	// Weight is the stochastic instruction count of the task.
	Weight stoch.Dist
	// ExternalIn is the number of bytes this task reads from the
	// external world (size(d_in,DC) contribution). Usually non-zero
	// only for entry tasks.
	ExternalIn float64
	// ExternalOut is the number of bytes this task publishes to the
	// external world (size(d_DC,out) contribution). Usually non-zero
	// only for exit tasks.
	ExternalOut float64
}

// Edge is a data dependency (T_from, T_to) with its payload size in
// bytes, size(d_{T_from,T_to}) in the paper's notation.
type Edge struct {
	From TaskID
	To   TaskID
	Size float64
}

// Workflow is a DAG of tasks under construction or analysis. The zero
// value is an empty workflow ready for use.
//
// The task and edge lists are the workflow's only state. Every
// structural read (Pred, Succ, the degrees, Entries, Exits, the
// analyses, Validate) goes through an index derived from them on first
// use; AddTask and AddEdge drop it. Concurrent reads are safe, the
// first one included; a change must not race with anything.
type Workflow struct {
	// Name labels the workflow (e.g. "MONTAGE-90-seed4").
	Name string

	tasks []Task
	edges []Edge
	idx   atomic.Pointer[index] // nil until the first structural read after a change
}

// New returns an empty named workflow.
func New(name string) *Workflow {
	return &Workflow{Name: name}
}

// NumTasks returns the number of tasks added so far.
func (w *Workflow) NumTasks() int { return len(w.tasks) }

// NumEdges returns the number of dependencies added so far.
func (w *Workflow) NumEdges() int { return len(w.edges) }

// AddTask appends a task and returns its ID. The distribution is not
// validated here; call Validate once construction is complete.
func (w *Workflow) AddTask(name string, weight stoch.Dist) TaskID {
	id := TaskID(len(w.tasks))
	w.tasks = append(w.tasks, Task{ID: id, Name: name, Weight: weight})
	w.idx.Store(nil)
	return id
}

// Grow reserves room for tasks more tasks and edges more edges, so that
// that many AddTask and AddEdge calls append without reallocating.
func (w *Workflow) Grow(tasks, edges int) {
	w.tasks = slices.Grow(w.tasks, tasks)
	w.edges = slices.Grow(w.edges, edges)
}

// SetExternalIO records the external-world input and output volumes of
// a task (bytes). It overwrites any previous values.
func (w *Workflow) SetExternalIO(id TaskID, in, out float64) error {
	if err := w.checkID(id); err != nil {
		return err
	}
	w.tasks[id].ExternalIn = in
	w.tasks[id].ExternalOut = out
	return nil
}

// MustSetExternalIO is SetExternalIO that panics on error; generators
// use it on tasks they just created.
func (w *Workflow) MustSetExternalIO(id TaskID, in, out float64) {
	if err := w.SetExternalIO(id, in, out); err != nil {
		panic(err)
	}
}

// AddEdge adds the dependency (from → to) carrying size bytes.
// Multiple edges between the same pair are allowed and their sizes
// accumulate semantically (the analyses sum them); generators avoid
// duplicates for clarity.
func (w *Workflow) AddEdge(from, to TaskID, size float64) error {
	if err := w.checkID(from); err != nil {
		return fmt.Errorf("wf: bad edge source: %w", err)
	}
	if err := w.checkID(to); err != nil {
		return fmt.Errorf("wf: bad edge target: %w", err)
	}
	if from == to {
		return fmt.Errorf("wf: self-loop on task %d (%s)", from, w.tasks[from].Name)
	}
	if size < 0 {
		return fmt.Errorf("wf: negative data size %v on edge %d->%d", size, from, to)
	}
	w.edges = append(w.edges, Edge{From: from, To: to, Size: size})
	w.idx.Store(nil)
	return nil
}

// MustAddEdge is AddEdge that panics on error; generators use it on
// edges whose endpoints they just created.
func (w *Workflow) MustAddEdge(from, to TaskID, size float64) {
	if err := w.AddEdge(from, to, size); err != nil {
		panic(err)
	}
}

// mustID returns id, panicking if it is not a task of w.
func (w *Workflow) mustID(id TaskID) TaskID {
	if err := w.checkID(id); err != nil {
		panic(err)
	}
	return id
}

func (w *Workflow) checkID(id TaskID) error {
	if id < 0 || int(id) >= len(w.tasks) {
		return fmt.Errorf("wf: task id %d out of range [0,%d)", id, len(w.tasks))
	}
	return nil
}

// Task returns the task with the given ID. It panics on an invalid ID;
// IDs only come from AddTask, so an invalid one is a programming error.
func (w *Workflow) Task(id TaskID) Task {
	return w.tasks[w.mustID(id)]
}

// Tasks returns a copy of the task list in ID order.
func (w *Workflow) Tasks() []Task { return slices.Clone(w.tasks) }

// Edges returns a copy of all edges in insertion order.
func (w *Workflow) Edges() []Edge { return slices.Clone(w.edges) }

// EdgesView returns the workflow's edge list without copying. The
// caller must treat the returned slice as read-only; hot paths (the
// analytic estimator, schedule validation) use it to walk every edge
// without an allocation per call.
func (w *Workflow) EdgesView() []Edge { return w.edges }

// TasksView returns the workflow's task list without copying, indexed
// by TaskID. The caller must treat the returned slice as read-only.
func (w *Workflow) TasksView() []Task { return w.tasks }

// AppendContent appends to b everything a planner reads from the
// workflow, in its own order and without labels: the task count, each
// task's w̄, σ and external I/O, the edge count, each edge's endpoints
// and size. Two workflows append the same bytes exactly when they hold
// the same numbers (as IEEE-754 bits) at the same indices.
func (w *Workflow) AppendContent(b []byte) []byte {
	b = slices.Grow(b, 16+32*len(w.tasks)+24*len(w.edges))
	b = binary.BigEndian.AppendUint64(b, uint64(len(w.tasks)))
	for _, t := range w.tasks {
		for _, v := range [...]float64{t.Weight.Mean, t.Weight.Sigma, t.ExternalIn, t.ExternalOut} {
			b = binary.BigEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	b = binary.BigEndian.AppendUint64(b, uint64(len(w.edges)))
	for _, e := range w.edges {
		b = binary.BigEndian.AppendUint64(b, uint64(e.From))
		b = binary.BigEndian.AppendUint64(b, uint64(e.To))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(e.Size))
	}
	return b
}

// Succ returns the outgoing edges of a task, in edge order.
func (w *Workflow) Succ(id TaskID) []Edge {
	return w.edgesAt(w.Out().Of(w.mustID(id)))
}

// Pred returns the incoming edges of a task, in edge order.
func (w *Workflow) Pred(id TaskID) []Edge {
	return w.edgesAt(w.In().Of(w.mustID(id)))
}

func (w *Workflow) edgesAt(idx []int) []Edge {
	out := make([]Edge, len(idx))
	for i, e := range idx {
		out[i] = w.edges[e]
	}
	return out
}

// NumPred returns the in-degree of a task.
func (w *Workflow) NumPred(id TaskID) int { return len(w.In().Of(w.mustID(id))) }

// NumSucc returns the out-degree of a task.
func (w *Workflow) NumSucc(id TaskID) int { return len(w.Out().Of(w.mustID(id))) }

// Entries returns the IDs of tasks with no predecessor.
func (w *Workflow) Entries() []TaskID { return w.In().none() }

// Exits returns the IDs of tasks with no successor.
func (w *Workflow) Exits() []TaskID { return w.Out().none() }

// InputSize returns size(d_pred,T): the total volume of data T receives
// from all its workflow predecessors (Equation (6)). External input is
// not included; it transits the datacenter before the workflow starts.
func (w *Workflow) InputSize(id TaskID) float64 {
	return w.sizeAt(w.In().Of(w.mustID(id)))
}

// OutputSize returns the total volume of data T sends to its workflow
// successors.
func (w *Workflow) OutputSize(id TaskID) float64 {
	return w.sizeAt(w.Out().Of(w.mustID(id)))
}

func (w *Workflow) sizeAt(idx []int) float64 {
	total := 0.0
	for _, e := range idx {
		total += w.edges[e].Size
	}
	return total
}

// TotalDataSize returns d_max = Σ_{(T',T)∈E} size(d_{T',T}), the total
// data volume carried by workflow-internal edges.
func (w *Workflow) TotalDataSize() float64 {
	total := 0.0
	for _, e := range w.edges {
		total += e.Size
	}
	return total
}

// ExternalInSize returns size(d_in,DC): total bytes entering the
// datacenter from the external world.
func (w *Workflow) ExternalInSize() float64 {
	total := 0.0
	for _, t := range w.tasks {
		total += t.ExternalIn
	}
	return total
}

// ExternalOutSize returns size(d_DC,out): total bytes leaving the
// datacenter towards the external world.
func (w *Workflow) ExternalOutSize() float64 {
	total := 0.0
	for _, t := range w.tasks {
		total += t.ExternalOut
	}
	return total
}

// TotalConservativeWork returns W_max = Σ_T (w̄_T + σ_T), the
// conservative total instruction count used by the budget division.
func (w *Workflow) TotalConservativeWork() float64 {
	total := 0.0
	for _, t := range w.tasks {
		total += t.Weight.Conservative()
	}
	return total
}

// TotalMeanWork returns Σ_T w̄_T.
func (w *Workflow) TotalMeanWork() float64 {
	total := 0.0
	for _, t := range w.tasks {
		total += t.Weight.Mean
	}
	return total
}

// Clone returns a deep copy of the workflow. The copy shares the
// original's index, which no later change to either can alter.
func (w *Workflow) Clone() *Workflow {
	c := &Workflow{Name: w.Name, tasks: slices.Clone(w.tasks), edges: slices.Clone(w.edges)}
	c.idx.Store(w.index())
	return c
}

// WithSigmaRatio returns a deep copy whose every task has σ set to the
// given fraction of its mean, the instantiation scheme of §V-A.
func (w *Workflow) WithSigmaRatio(ratio float64) *Workflow {
	c := w.Clone()
	for i := range c.tasks {
		c.tasks[i].Weight = c.tasks[i].Weight.WithSigmaRatio(ratio)
	}
	return c
}
