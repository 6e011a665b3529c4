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
// engine: the graph caches, event heap, flow arena and result buffers
// are built once and rewound per execution. Monte Carlo replication
// loops (exp sweeps, the daemon's /v1/simulate, replication-based
// objectives) should prefer a Runner over the package-level Run*
// functions, which pay the full engine construction per call.
//
// A Runner is NOT safe for concurrent use, and each *Result it returns
// aliases the Runner's internal buffers: it is valid only until the
// next Run/RunStochastic call. Callers that need to keep a Result
// across replications must copy the fields they care about (the usual
// pattern — appending r.Makespan, r.TotalCost, r.NumVMs() to
// accumulators — never retains the Result).
type Runner struct {
	eng   *engine
	dists []stoch.Dist // per-task weight distributions, cached once
	buf   []float64    // scratch realized weights for RunStochastic

	span *obs.Span // optional tracing parent, see SetSpan
	reps int       // executions since SetSpan, numbers the children
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
		eng:   newEngineFromStatic(st),
		dists: make([]stoch.Dist, w.NumTasks()),
		buf:   make([]float64, w.NumTasks()),
	}
	for _, t := range w.Tasks() {
		r.dists[t.ID] = t.Weight
	}
	return r, nil
}

// Rebind points the Runner at another schedule of the same workflow
// and platform — or at the same *plan.Schedule after the caller rewrote
// it in place — keeping the graph caches, event heap, flow arena and
// result buffers. s gets the full plan.Schedule.Validate; only what
// depends on the schedule is recomputed.
//
// The Runner reads s during every later execution, so a caller that
// rewrites s must Rebind before the next Run — also after a failed
// Rebind, which leaves the Runner bound to the schedule it had.
func (r *Runner) Rebind(s *plan.Schedule) error {
	if err := r.eng.st.bind(s); err != nil {
		return err
	}
	r.eng.fit()
	return nil
}

// Run simulates one execution under the given realized weights. The
// weights slice is only read during the call.
func (r *Runner) Run(weights []float64) (*Result, error) {
	if len(weights) != len(r.buf) {
		return nil, fmt.Errorf("sim: %d weights for %d tasks", len(weights), len(r.buf))
	}
	if err := r.eng.reset(weights); err != nil {
		return nil, err
	}
	if r.span == nil {
		return r.eng.run()
	}
	sp := r.span.Child("replication")
	sp.Set(obs.Int("rep", r.reps))
	r.reps++
	res, err := r.eng.run()
	if err != nil {
		sp.Set(obs.Str("error", err.Error()))
	} else {
		sp.Set(obs.Float("makespan", res.Makespan),
			obs.Float("cost", res.TotalCost),
			obs.Int("vms", res.NumVMs()))
	}
	sp.End()
	return res, err
}

// RunStochastic samples every task weight from its distribution and
// simulates one execution.
func (r *Runner) RunStochastic(rand *rng.RNG) (*Result, error) {
	for t, d := range r.dists {
		r.buf[t] = d.Sample(rand)
	}
	return r.Run(r.buf)
}

// RunStochasticOutliers is RunStochastic under the heavy-tail outlier
// model (see stoch.Outliers). Decisions draw from a stream split off
// rand so the weight stream matches RunStochastic exactly (CRN).
func (r *Runner) RunStochasticOutliers(rand *rng.RNG, o stoch.Outliers) (*Result, error) {
	decisions := rand.Split(stoch.OutlierStreamLabel)
	for t, d := range r.dists {
		r.buf[t] = o.Sample(d, rand, decisions)
	}
	return r.Run(r.buf)
}

// RunDeterministic simulates under conservative weights (w̄+σ).
func (r *Runner) RunDeterministic() (*Result, error) {
	for t, d := range r.dists {
		r.buf[t] = d.Conservative()
	}
	return r.Run(r.buf)
}
