package sim

import (
	"fmt"

	"budgetwf/internal/obs"
	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/rng"
	"budgetwf/internal/stoch"
	"budgetwf/internal/wf"
)

// Runner replays one schedule many times without re-allocating the
// engine: the graph caches, event queue and result buffers are built
// once and rewound per execution. Monte Carlo replication
// loops (exp sweeps, the daemon's /v1/simulate, replication-based
// objectives) should prefer a Runner over the package-level Run*
// functions, which pay the full engine construction per call — and a
// loop that reads only makespan and cost should call Score, which skips
// the event loop wherever that cannot change either number.
//
// A Runner is NOT safe for concurrent use, and each *Result it returns
// aliases the Runner's internal buffers: it is valid only until the
// next Run/RunStochastic/Score call. Callers that need to keep a Result
// across replications must copy the fields they care about.
type Runner struct {
	eng   *Exec
	dists []stoch.Dist // per-task weight distributions, cached once
	buf   []float64    // scratch realized weights, see Sample

	span *obs.Span // optional tracing parent, see SetSpan
	reps int       // executions since SetSpan, numbers the children

	moves moveCheckpoint // ScoreMove's, built on first use
}

// SetSpan attaches a tracing span to the Runner: every subsequent
// execution opens a numbered "replication" child span recording the
// realized makespan, total cost and VM count (internal/obs). A nil
// span — the default — keeps Run at a single pointer check.
func (r *Runner) SetSpan(s *obs.Span) {
	r.span = s
	r.reps = 0
}

// NewRunner validates the (workflow, platform, schedule) triple once
// and returns a Runner for repeated executions of that schedule.
func NewRunner(w *wf.Workflow, p *platform.Platform, s *plan.Schedule) (*Runner, error) {
	st, err := newEngineStatic(w, p, s)
	if err != nil {
		return nil, err
	}
	r := &Runner{
		eng:   newExec(st),
		dists: make([]stoch.Dist, w.NumTasks()),
		buf:   make([]float64, w.NumTasks()),
	}
	for _, t := range w.TasksView() {
		r.dists[t.ID] = t.Weight
	}
	return r, nil
}

// Rebind points the Runner at another schedule of the same workflow
// and platform — or at the same *plan.Schedule after the caller rewrote
// it in place — keeping the graph caches, event queue and result
// buffers. s gets the full plan.Schedule.Validate; only what
// depends on the schedule is recomputed.
//
// The Runner reads s during every later execution, so a caller that
// rewrites s must Rebind before the next Run — also after a failed
// Rebind, which leaves the Runner bound to the schedule it had.
func (r *Runner) Rebind(s *plan.Schedule) error {
	if err := r.eng.st.bind(s); err != nil {
		return err
	}
	r.moves.valid = false
	return nil
}

// MoveCounts returns ScoreMove's totals since NewRunner: the tasks its
// passes ran, checkpoint advances included, and the moves cut by a
// task's finish plus its tail (buildTail) before the latest VM End
// alone reached the bound.
func (r *Runner) MoveCounts() (scored, cutByBound int) {
	return r.moves.scored, r.moves.byBound
}

// Run simulates one execution under the given realized weights. The
// weights slice is only read during the call.
func (r *Runner) Run(weights []float64) (*Result, error) {
	sp, err := r.begin(weights, r.eng.reset)
	if err != nil {
		return nil, err
	}
	if err := r.eng.Run(); err != nil {
		endReplication(sp, 0, 0, 0, err)
		return nil, err
	}
	res := r.eng.Collect()
	endReplication(sp, res.Makespan, res.TotalCost, res.NumVMs(), nil)
	return res, nil
}

// Score returns exactly the Makespan and TotalCost that Run would
// report for these weights, bit for bit, for callers that read nothing
// else of a Result. Where event order cannot change a float — no
// datacenter bandwidth sharing and no per-byte transfer surcharge — it
// is one forward pass over the schedule in a topological order worked
// out once per binding, with no event loop (score.go); on any other
// platform it runs Run. Either way it applies Run's
// checks, records the same "replication" span and invalidates the
// previous Result.
func (r *Runner) Score(weights []float64) (makespan, cost float64, err error) {
	if !r.eng.st.exact {
		res, err := r.Run(weights)
		if err != nil {
			return 0, 0, err
		}
		return res.Makespan, res.TotalCost, nil
	}
	sp, err := r.begin(weights, r.eng.rewind)
	if err != nil {
		return 0, 0, err
	}
	makespan, cost, vms, err := r.eng.score()
	endReplication(sp, makespan, cost, vms, err)
	return makespan, cost, err
}

// begin checks the weights, rewinds the engine and, when tracing, opens
// the execution's numbered "replication" span.
func (r *Runner) begin(weights []float64, rewind func([]float64) error) (*obs.Span, error) {
	if len(weights) != len(r.buf) {
		return nil, fmt.Errorf("sim: %d weights for %d tasks", len(weights), len(r.buf))
	}
	if err := rewind(weights); err != nil {
		return nil, err
	}
	r.moves.valid = false
	if r.span == nil {
		return nil, nil
	}
	sp := r.span.Child("replication")
	sp.Set(obs.Int("rep", r.reps))
	r.reps++
	return sp, nil
}

// endReplication records an execution's outcome on its span, if any.
func endReplication(sp *obs.Span, makespan, cost float64, vms int, err error) {
	if sp == nil {
		return
	}
	if err != nil {
		sp.Set(obs.Str("error", err.Error()))
	} else {
		sp.Set(obs.Float("makespan", makespan), obs.Float("cost", cost), obs.Int("vms", vms))
	}
	sp.End()
}

// Sample draws one realization of every task weight into the Runner's
// weight buffer and returns it, for Run or Score; the next Sample
// overwrites it.
func (r *Runner) Sample(rand *rng.RNG) []float64 {
	for t, d := range r.dists {
		r.buf[t] = d.Sample(rand)
	}
	return r.buf
}

// RunStochastic samples every task weight from its distribution and
// simulates one execution.
func (r *Runner) RunStochastic(rand *rng.RNG) (*Result, error) {
	return r.Run(r.Sample(rand))
}
