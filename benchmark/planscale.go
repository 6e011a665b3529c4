package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"budgetwf/internal/platform"
	"budgetwf/internal/sched"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// planWorkload is plan-scale, the paper's Table III(b): the scheduling
// time of every list planner on Montage at growing sizes, and of the
// refined planners at the smallest size, under the medium budget. One
// op is one round over the whole table, single goroutine; planner
// only, no server, no simulator.
type planWorkload struct {
	sz    sizes
	plat  *platform.Platform
	cells []planCell
	sum   string
}

// planLabels are the sizes the per-layer metric names carry. They are
// the sizes planned, except under bench_test.go's reduced sizes, which
// keep the declared names.
var planLabels = []int{90, 300, 1000}

// planCell is one (algorithm, size) entry of the table.
type planCell struct {
	alg    sched.Algorithm
	n      int
	label  int
	w      *wf.Workflow
	budget float64
	ref    []byte // the reference plan's JSON
}

// metric is the cell's per-layer name stem: sched.<alg>.n<size>, with
// the "+" of the refined planners spelled out.
func (c planCell) metric() string {
	return fmt.Sprintf("sched.%s.n%04d", strings.ReplaceAll(string(c.alg.Name), "+", "plus"), c.label)
}

var (
	listPlanners    = []sched.Name{sched.NameMinMin, sched.NameHeft, sched.NameMinMinBudg, sched.NameHeftBudg, sched.NameBDT, sched.NameCG}
	refinedPlanners = []sched.Name{sched.NameHeftBudgPlus, sched.NameHeftBudgPlusInv, sched.NameCGPlus}
)

func (p *planWorkload) setup(e *env) error {
	p.plat = platform.Default()
	p.cells = nil
	for si, n := range p.sz.planSizes {
		w, err := generate(wfgen.Montage, n, itemSeed(e.seed, "plan-scale", si))
		if err != nil {
			return err
		}
		budget, err := mediumBudget(w, p.plat)
		if err != nil {
			return err
		}
		names := listPlanners
		if si == 0 {
			names = append(append([]sched.Name(nil), listPlanners...), refinedPlanners...)
		}
		algs, err := algorithms(names...)
		if err != nil {
			return err
		}
		for _, alg := range algs {
			p.cells = append(p.cells, planCell{alg: alg, n: n, label: planLabels[si], w: w, budget: budget})
		}
	}
	// The warm-up round is also the reference.
	digest := sha256.New()
	for i := range p.cells {
		c := &p.cells[i]
		var err error
		if _, c.ref, err = p.plan(*c); err != nil {
			return fmt.Errorf("%s at n=%d: reference plan: %w", c.alg.Name, c.n, err)
		}
		digest.Write(c.ref)
	}
	p.sum = hex.EncodeToString(digest.Sum(nil))
	return nil
}

// plan times one Plan call and renders the plan; out is nil when the
// planner failed or the plan is not valid for the workflow. Only the
// Plan call is timed.
func (p *planWorkload) plan(c planCell) (d time.Duration, out []byte, err error) {
	t0 := time.Now()
	s, err := c.alg.Plan(c.w, p.plat, c.budget)
	d = time.Since(t0)
	if err != nil {
		return d, nil, err
	}
	if err := s.Validate(c.w, p.plat.NumCategories()); err != nil {
		return d, nil, err
	}
	// The planner's own estimates are floats computed deterministically;
	// the JSON carries no wall-clock field.
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		return d, nil, err
	}
	return d, buf.Bytes(), nil
}

// round is one op: every cell planned once and checked against the
// reference. Its latency is the sum of the Plan calls.
func (p *planWorkload) round(each func(c planCell, d time.Duration)) (lat time.Duration, ok bool) {
	ok = true
	for _, c := range p.cells {
		d, out, err := p.plan(c)
		if err != nil || !bytes.Equal(out, c.ref) {
			warn("plan-scale: %s at n=%d: plan differs from the reference (%v)", c.alg.Name, c.n, err)
			ok = false
		}
		lat += d
		if each != nil {
			each(c, d)
		}
	}
	return lat, ok
}

func (p *planWorkload) run(e *env, d time.Duration) (*phase, error) {
	ph := &phase{}
	mem0 := readMem()
	start := time.Now()
	for ph.attempted == 0 || time.Since(start) < d {
		lat, ok := p.round(nil)
		ph.attempted++
		if !ok {
			ph.failed++
			continue
		}
		ph.latMs = append(ph.latMs, float64(lat)/float64(time.Millisecond))
	}
	ph.wall = time.Since(start)
	ph.mem = readMem().sub(mem0)
	return ph, nil
}

// tracedRounds is how many rounds the traced pass records: each cell's
// time is the median of that many calls.
const tracedRounds = 3

// allocCells are the cells whose allocation the roadmap singles out.
var allocCells = map[string]bool{
	"sched.minminbudg.n1000": true, "sched.bdt.n1000": true, "sched.heftbudgplus.n0090": true,
}

func (p *planWorkload) traced(e *env, rec *recorder, untraced *phase) (map[string]float64, error) {
	layers := make(map[string]float64)
	perCell := make(map[string][]float64)
	var rounds []float64
	for r := 0; r < tracedRounds; r++ {
		op := r + 1
		root := rec.begin("round", -1, op)
		lat, ok := p.round(func(c planCell, d time.Duration) {
			end := time.Since(rec.epoch)
			rec.add(c.metric(), end-d, end, root, op)
			perCell[c.metric()] = append(perCell[c.metric()], float64(d)/float64(time.Millisecond))
		})
		rec.end(root)
		if !ok {
			return nil, fmt.Errorf("a traced plan differs from the reference")
		}
		rounds = append(rounds, float64(lat)/float64(time.Millisecond))
	}
	var medians []float64
	for _, c := range p.cells {
		m := median(perCell[c.metric()])
		layers[c.metric()+"_ms"] = m
		medians = append(medians, m)
		if allocCells[c.metric()] {
			mem0 := readMem()
			if _, err := c.alg.Plan(c.w, p.plat, c.budget); err != nil {
				return nil, err
			}
			layers[c.metric()+"_alloc_mb"] = float64(readMem().sub(mem0).TotalAlloc) / (1 << 20)
		}
	}
	layers["sched.plan_geomean_ms"] = geomean(medians)
	// Table III's algorithm-to-algorithm ratios: a change that moves
	// them must explain it in EXPERIMENTS.md.
	layers["sched.ratio.minminbudg_heftbudg.n1000"] = ratio(layers["sched.minminbudg.n1000_ms"], layers["sched.heftbudg.n1000_ms"])
	layers["sched.ratio.bdt_heftbudg.n1000"] = ratio(layers["sched.bdt.n1000_ms"], layers["sched.heftbudg.n1000_ms"])
	layers["sched.ratio.heftbudgplus_heftbudg.n0090"] = ratio(layers["sched.heftbudgplus.n0090_ms"], layers["sched.heftbudg.n0090_ms"])
	layers["bench.trace_overhead_share"] = ratio(median(rounds), median(untraced.latMs)) - 1
	return layers, nil
}

func (p *planWorkload) digest() string { return p.sum }
func (p *planWorkload) close()         {}
