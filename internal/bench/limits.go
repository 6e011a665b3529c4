package bench

import (
	"fmt"
	"strings"

	"budgetwf/internal/sched"
)

// Metric is a per-op column of a Result, by its JSON name.
type Metric string

const (
	NsPerOp     Metric = "ns_per_op"
	BytesPerOp  Metric = "bytes_per_op"
	AllocsPerOp Metric = "allocs_per_op"
)

func (m Metric) of(r Result) float64 {
	switch m {
	case BytesPerOp:
		return float64(r.BytesPerOp)
	case AllocsPerOp:
		return float64(r.AllocsPerOp)
	}
	return r.NsPerOp
}

// Limit is one row of a suite's table. A run breaks it when x > Max·y,
// where x sums Metric over the cases X of the run and y over the cases
// Y, y being 1 when Y is empty. Counts convert to float64 exactly, so
// every row compares as its integer form would.
type Limit struct {
	Metric Metric
	X      []string
	Max    float64
	Y      []string
}

// ceiling is the row x ≤ max for one case.
func ceiling(m Metric, x string, max float64) Limit {
	return Limit{Metric: m, X: []string{x}, Max: max}
}

// ratio is the row x ≤ max·y for two cases.
func ratio(m Metric, x string, max float64, y string) Limit {
	return Limit{Metric: m, X: []string{x}, Max: max, Y: []string{y}}
}

// Check holds a baseline of s to the suite as the code defines it: a
// valid file with exactly the cases named (any, when cases is nil),
// recorded at s.GOMAXPROCS and within every limit of s. It returns one
// report line per limit, in order, ending in ok or FAIL; the error
// names each limit f breaks and each case a limit reads that f lacks.
func (s Suite) Check(f *File, cases []string) ([]string, error) {
	if err := f.Validate(s.Name, cases); err != nil {
		return nil, err
	}
	if f.GOMAXPROCS != s.GOMAXPROCS {
		return nil, fmt.Errorf("bench: recorded at gomaxprocs %d, suite %s runs at %d", f.GOMAXPROCS, s.Name, s.GOMAXPROCS)
	}
	byCase := make(map[string]Result, len(f.Results))
	for _, r := range f.Results {
		byCase[r.Case] = r
	}
	var report, broken []string
	sum := func(m Metric, cases []string) (float64, bool) {
		v := 0.0
		for _, c := range cases {
			r, ok := byCase[c]
			if !ok {
				broken = append(broken, c+" case missing")
				return 0, false
			}
			v += m.of(r)
		}
		return v, true
	}
	for _, l := range s.Limits {
		x, okX := sum(l.Metric, l.X)
		y, okY := 1.0, true
		if len(l.Y) > 0 {
			y, okY = sum(l.Metric, l.Y)
		}
		line := fmt.Sprintf("%s %s %.0f ≤ %g", strings.Join(l.X, " + "), l.Metric, x, l.Max)
		if len(l.Y) > 0 {
			line += fmt.Sprintf(" × %s %.0f (reads %.4g×)", strings.Join(l.Y, " + "), y, x/y)
		}
		switch {
		case !okX || !okY:
			line += ": case missing"
		case x > l.Max*y:
			line += ": FAIL"
			broken = append(broken, line)
		default:
			line += ": ok"
		}
		report = append(report, line)
	}
	if len(broken) > 0 {
		return report, fmt.Errorf("bench: %s gate: %s", s.Name, strings.Join(broken, "; "))
	}
	return report, nil
}

// The daemon suite's limits, all machine-independent. A warm hit is
// compared with the content-key hit of the same run, which crosses the
// same HTTP path (about 80 of a warm op's 117 objects are the client's
// and net/http's) and finds the same entry, but decodes the workflow
// and derives its content key first. The warm hit's time against the
// fresh plan's, which includes an HTTP round trip on one side only, is
// not a limit.
func daemonLimits() []Limit {
	const (
		warm      = "schedule-warm/montage/n0050"
		canonical = "schedule-warm-canonical/montage/n0050"
		decode    = "wf-decode/montage/n0050"
		key       = "wf-content-key/montage/n0050"
	)
	return []Limit{
		// The decoder's count is absolute: its one-pass path allocates a
		// fixed handful of objects whatever the workflow's size, where
		// encoding/json's reflection allocated 271 at n = 50.
		ceiling(AllocsPerOp, decode, 24),
		// In allocations a warm hit must save at least the decode's and
		// the content key's objects. wf-content-key times only the
		// workflow's part of the key, to which cacheKey adds 4 objects,
		// so the row asks that many fewer than a content-key hit spends.
		{Metric: AllocsPerOp, X: []string{warm, decode, key}, Max: 1, Y: []string{canonical}},
		// That difference cancels growth the two hits share — writing the
		// hit, the round trip, the alias lookup — so the warm hit's own
		// count is bounded too: it reads 117.
		ceiling(AllocsPerOp, warm, 150),
		// In time a healthy warm hit read 0.28–0.61 of a content-key hit
		// over 30 runs at 1x and 10x, one that parses again 0.82–1.16
		// (0.32–0.72 and 0.71–1.44 at 1000x); against a cold request the
		// two overlap.
		ratio(NsPerOp, warm, 0.75, canonical),
	}
}

// plannerLimits holds, on every family, the refinement relations at
// n = 50 and the list planners' relations at n = 1000, all between
// cases of one planner-suite run.
func plannerLimits() []Limit {
	var t []Limit
	for _, typ := range plannerFamilies {
		at := func(alg sched.Name, n int) string { return plannerCase(alg, typ, n) }
		t = append(t,
			// A HEFTBUDG+ plan against the HEFTBUDG plan it starts from.
			// Refinement evaluates its candidate moves in place on one
			// reusable engine and keeps a move by swapping the Mover's two
			// schedules, so it adds the evaluator's buffers to a list plan
			// that itself allocates per plan: the committed baseline reads
			// 2.7–2.8× (the tails of the forward pass's bound add two
			// buffers). Allocating per candidate again — it was a cloned
			// schedule and a fresh engine each, ≈ 1 200× — fails this by
			// orders of magnitude, on any machine.
			ratio(AllocsPerOp, at(sched.NameHeftBudgPlus, 50), 4, at(sched.NameHeftBudg, 50)),
			// Table III's refinement factor. Scoring each candidate move by
			// a forward pass resumed from the moved task, stopped once a
			// finish plus the longest compute path still to come after it
			// shows the move cannot win, reads 7.6 / 24.4 / 7.5× on
			// CyberShake / LIGO / Montage in the committed baseline; stopped
			// only once the latest VM End showed it, 12.1 / 32.4 / 19.6×;
			// re-simulating the whole candidate schedule, as refinement did
			// before that, read 31–78×.
			ratio(NsPerOp, at(sched.NameHeftBudgPlus, 50), 40, at(sched.NameHeftBudg, 50)),
			// MIN-MIN against HEFTBUDG. A MIN-MIN round skips every ready
			// task whose allowance-free key finishes after the round's best
			// so far, a block of them at a time (sched.readyRow): the
			// committed baseline reads 1.95 / 1.82 / 1.92× (CyberShake /
			// LIGO / Montage), and 2.9 is 1.5 times the highest; single
			// runs on a 2-core host read 1.5–2.1×. Running every ready
			// task's round in full, as MIN-MIN did before, read 5.0 / 3.5
			// / 3.1× in same-session medians.
			ratio(NsPerOp, at(sched.NameMinMin, 1000), 2.9, at(sched.NameHeftBudg, 1000)),
			// Table III's ordering: MIN-MINBUDG takes no less time than
			// HEFTBUDG, in every family. The committed baseline reads
			// HEFTBUDG at 0.29 / 0.15 / 0.38 of MIN-MINBUDG.
			ratio(NsPerOp, at(sched.NameHeftBudg, 1000), 1, at(sched.NameMinMinBudg, 1000)),
			// Table III puts MIN-MINBUDG and HEFTBUDG within a small
			// factor. With each ready task's last two picks cached
			// (sched.pickCache), a pick whose VM is booked kept as a lower
			// bound, both planners reading the readiness index, and the
			// tasks whose key loses the round skipped, the committed
			// baseline reads 3.4 / 6.5 / 2.6× (CyberShake / LIGO /
			// Montage; 6.1–6.9 and 4.2–4.4× on CyberShake and Montage in
			// same-session pairs before the key). LIGO's key skips a third
			// of its visits at this budget, so its reading barely moves
			// and the row keeps 8.5. Forgetting such a pick, as MIN-MIN
			// did before, read 2.1–9.0× (LIGO and Montage 7–10× in single
			// runs), and re-scanning every ready task's whole column every
			// round, as it did before its picks were cached, 22–42×.
			ratio(NsPerOp, at(sched.NameMinMinBudg, 1000), 8.5, at(sched.NameHeftBudg, 1000)),
			// Both hold O(n + VMs) memory, and the committed baseline reads
			// 1.5–1.6×. Keeping every ready task's candidate on every VM,
			// the matrix MIN-MIN kept before, read 70–130×.
			ratio(BytesPerOp, at(sched.NameMinMinBudg, 1000), 4, at(sched.NameHeftBudg, 1000)),
			// The same relation at the low budget, where nearly every pick
			// is a fallback and MIN-MINBUDG re-scans 16–45 % of its task
			// visits, each walking the VMs ready after the task's data.
			// Re-scanning from the readiness index reads 27–44× in the
			// committed baseline and 21–47× in single runs on a 2-core
			// host, so 60 leaves the headroom the row above has; scanning
			// every used VM, as both planners did before, read 32–80×.
			ratio(NsPerOp, plannerLowCase(sched.NameMinMinBudg, typ), 60, plannerLowCase(sched.NameHeftBudg, typ)),
			// Table III puts BDT's CPU time in the list planners' order.
			// BDT's TCTF selection reads the readiness index as HEFTBUDG's
			// does, placing every VM that runs a predecessor and a few per
			// category: the committed baseline reads 2.7 / 1.0 / 1.8×
			// (CyberShake / LIGO / Montage), and single runs on a 2-core
			// host 1.0–3.2×, so 4.5 leaves the headroom of the low-budget
			// row above. Placing every used VM for every task, as BDT did
			// before, read 10.7 / 6.7 / 9.1 ms against HEFTBUDG's 1.3 /
			// 1.3 / 1.2 ms in the committed baseline, 5.1–8.1×, and 5.0–9.1×
			// in single runs.
			ratio(NsPerOp, at(sched.NameBDT, 1000), 4.5, at(sched.NameHeftBudg, 1000)))
		// A list planner allocates a fixed handful of buffers per plan —
		// the context, the budget shares, its state and the schedule it
		// extracts — so the count moves only by a few appends that
		// double: the committed baseline reads 1.1–1.2×. Appending per VM
		// or per task, as the planners did when every VM kept its own
		// task and slot lists, read 15–18×.
		for _, alg := range []sched.Name{sched.NameHeftBudg, sched.NameCG, sched.NameBDT} {
			t = append(t, ratio(AllocsPerOp, at(alg, 1000), 2, at(alg, 50)))
		}
	}
	return t
}

// simLimits holds each sim-suite run's replication batches to their
// allocation ceiling and time relations.
func simLimits() []Limit {
	var t []Limit
	for _, sigma := range simSigmas {
		mc, score := simCase("mc", sigma), simCase("score", sigma)
		t = append(t,
			// A batch draws one split RNG stream per replication and
			// nothing else (26 allocations at most), so the ceiling
			// catches an evaluator that allocates even once per call
			// (≥ 50), deterministically.
			ceiling(AllocsPerOp, mc, 32),
			ceiling(AllocsPerOp, score, 32),
			// Between two cases of the same run on the same weights:
			// scoring measures about 1/20 to 1/10 of the event engine here
			// (the rest is sampling); at 1/2 it would no longer be worth a
			// second code path.
			ratio(NsPerOp, score, 0.5, mc))
	}
	mc, online := simCase("mc", onlineSigma), simCase("online", onlineSigma)
	// A one-shot online execution builds the engine and its controller
	// and collects a Report — a few dozen allocations — and replays the
	// schedule on the same event engine, so a batch of them stays within
	// twice the reused engine's time and 400 allocations per execution.
	return append(t,
		ratio(NsPerOp, online, 2, mc),
		ceiling(AllocsPerOp, online, 400*simReps))
}

// estLimits caps an est-suite op: one est.Compute and its quantile
// reads allocate a fixed handful of arrays (3 at every σ on the
// committed baseline), never per task or per read.
func estLimits() []Limit {
	var t []Limit
	for _, sigma := range simSigmas {
		t = append(t, ceiling(AllocsPerOp, estCase(sigma), 8))
	}
	return t
}
