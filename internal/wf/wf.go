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
type Workflow struct {
	// Name labels the workflow (e.g. "MONTAGE-90-seed4").
	Name string

	tasks []Task
	edges []Edge
	succ  [][]int // succ[t] = indices into edges with From == t
	pred  [][]int // pred[t] = indices into edges with To == t
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
	w.succ = append(w.succ, nil)
	w.pred = append(w.pred, nil)
	return id
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
	idx := len(w.edges)
	w.edges = append(w.edges, Edge{From: from, To: to, Size: size})
	w.succ[from] = append(w.succ[from], idx)
	w.pred[to] = append(w.pred[to], idx)
	return nil
}

// MustAddEdge is AddEdge that panics on error; generators use it on
// edges whose endpoints they just created.
func (w *Workflow) MustAddEdge(from, to TaskID, size float64) {
	if err := w.AddEdge(from, to, size); err != nil {
		panic(err)
	}
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
	if err := w.checkID(id); err != nil {
		panic(err)
	}
	return w.tasks[id]
}

// Tasks returns a copy of the task list in ID order.
func (w *Workflow) Tasks() []Task {
	out := make([]Task, len(w.tasks))
	copy(out, w.tasks)
	return out
}

// Edges returns a copy of all edges in insertion order.
func (w *Workflow) Edges() []Edge {
	out := make([]Edge, len(w.edges))
	copy(out, w.edges)
	return out
}

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

// Succ returns the outgoing edges of a task.
func (w *Workflow) Succ(id TaskID) []Edge {
	if err := w.checkID(id); err != nil {
		panic(err)
	}
	out := make([]Edge, 0, len(w.succ[id]))
	for _, e := range w.succ[id] {
		out = append(out, w.edges[e])
	}
	return out
}

// Pred returns the incoming edges of a task.
func (w *Workflow) Pred(id TaskID) []Edge {
	if err := w.checkID(id); err != nil {
		panic(err)
	}
	out := make([]Edge, 0, len(w.pred[id]))
	for _, e := range w.pred[id] {
		out = append(out, w.edges[e])
	}
	return out
}

// NumPred returns the in-degree of a task.
func (w *Workflow) NumPred(id TaskID) int {
	if err := w.checkID(id); err != nil {
		panic(err)
	}
	return len(w.pred[id])
}

// NumSucc returns the out-degree of a task.
func (w *Workflow) NumSucc(id TaskID) int {
	if err := w.checkID(id); err != nil {
		panic(err)
	}
	return len(w.succ[id])
}

// Entries returns the IDs of tasks with no predecessor.
func (w *Workflow) Entries() []TaskID {
	var out []TaskID
	for i := range w.tasks {
		if len(w.pred[i]) == 0 {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// Exits returns the IDs of tasks with no successor.
func (w *Workflow) Exits() []TaskID {
	var out []TaskID
	for i := range w.tasks {
		if len(w.succ[i]) == 0 {
			out = append(out, TaskID(i))
		}
	}
	return out
}

// InputSize returns size(d_pred,T): the total volume of data T receives
// from all its workflow predecessors (Equation (6)). External input is
// not included; it transits the datacenter before the workflow starts.
func (w *Workflow) InputSize(id TaskID) float64 {
	if err := w.checkID(id); err != nil {
		panic(err)
	}
	total := 0.0
	for _, e := range w.pred[id] {
		total += w.edges[e].Size
	}
	return total
}

// OutputSize returns the total volume of data T sends to its workflow
// successors.
func (w *Workflow) OutputSize(id TaskID) float64 {
	if err := w.checkID(id); err != nil {
		panic(err)
	}
	total := 0.0
	for _, e := range w.succ[id] {
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

// Clone returns a deep copy of the workflow.
func (w *Workflow) Clone() *Workflow {
	c := New(w.Name)
	c.tasks = make([]Task, len(w.tasks))
	copy(c.tasks, w.tasks)
	c.edges = make([]Edge, len(w.edges))
	copy(c.edges, w.edges)
	c.succ = make([][]int, len(w.succ))
	for i, s := range w.succ {
		c.succ[i] = append([]int(nil), s...)
	}
	c.pred = make([][]int, len(w.pred))
	for i, p := range w.pred {
		c.pred[i] = append([]int(nil), p...)
	}
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
