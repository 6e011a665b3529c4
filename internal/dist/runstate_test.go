package dist

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"budgetwf/internal/exp"
)

// t0 is the virtual clock the runState tests start from.
var t0 = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// fakeUnits stands in for a worker's answer to [start, end): runState
// merges what it is given, the coverage check is the attempt's.
func fakeUnits(start, end int) []exp.Unit {
	var out []exp.Unit
	for i := start; i < end; i++ {
		out = append(out, exp.Unit{Unit: i})
	}
	return out
}

// TestRunStateDecisions feeds event sequences to a run over the 12-cell
// test sweep, with no sockets and no real time, and checks what it
// decides.
func TestRunStateDecisions(t *testing.T) {
	const stealAfter = time.Minute
	cases := []struct {
		name string
		run  func(t *testing.T, s *runState, stats func() CoordStats)
	}{
		{"late duplicate is dropped and counted", func(t *testing.T, s *runState, stats func() CoordStats) {
			sh := shard{start: 0, end: 4}
			if !s.result(s.dispatched(sh, "a", t0), sh, fakeUnits(0, 4)) {
				t.Fatal("first result not merged")
			}
			spec := shard{start: 0, end: 4, speculative: true}
			if s.result(s.dispatched(spec, "b", t0), spec, fakeUnits(0, 4)) {
				t.Fatal("duplicate result merged")
			}
			if s.done != 4 || len(s.merged) != 4 || len(s.flights) != 0 {
				t.Errorf("done %d, merged %d, flights %d; want 4, 4, 0", s.done, len(s.merged), len(s.flights))
			}
			if st := stats(); st.LateDuplicates != 1 || st.Dispatched != 2 {
				t.Errorf("stats %+v, want 1 late duplicate of 2 dispatched", st)
			}
		}},
		{"failed multi-unit primary splits in halves", func(t *testing.T, s *runState, stats func() CoordStats) {
			sh := shard{start: 0, end: 5, attempts: 1}
			s.failed(s.dispatched(sh, "a", t0), sh)
			want := []shard{{start: 0, end: 2, attempts: 2}, {start: 2, end: 5, attempts: 2}}
			if !reflect.DeepEqual(s.queue, want) || len(s.flights) != 0 {
				t.Errorf("queue %+v, flights %d; want %+v, 0", s.queue, len(s.flights), want)
			}
			if st := stats(); st.Requeued != 1 {
				t.Errorf("Requeued = %d, want 1 (a split counts once)", st.Requeued)
			}
		}},
		{"failed single unit is requeued as is", func(t *testing.T, s *runState, stats func() CoordStats) {
			sh := shard{start: 3, end: 4}
			s.failed(s.dispatched(sh, "a", t0), sh)
			if want := []shard{{start: 3, end: 4, attempts: 1}}; !reflect.DeepEqual(s.queue, want) {
				t.Errorf("queue %+v, want %+v", s.queue, want)
			}
		}},
		{"failed speculation re-arms its primary", func(t *testing.T, s *runState, stats func() CoordStats) {
			primary := shard{start: 0, end: 4}
			pid := s.dispatched(primary, "a", t0)
			if got := s.steal(t0.Add(2*stealAfter), []string{"a", "b"}); len(got) != 1 {
				t.Fatalf("stole %d, want the slow primary", len(got))
			}
			spec, _, _ := s.next()
			s.failed(s.dispatched(spec, "b", t0.Add(2*stealAfter)), spec)
			if len(s.queue) != 0 || s.flights[pid].speculated {
				t.Fatalf("queue %+v, primary speculated %v; want nothing requeued and the primary re-armed", s.queue, s.flights[pid].speculated)
			}
			if got := s.steal(t0.Add(3*stealAfter), []string{"a", "b"}); len(got) != 1 || got[0].parent != pid {
				t.Errorf("re-armed primary stolen as %+v, want one speculation of flight %d", got, pid)
			}
		}},
		{"shard at MaxAttempts falls back to local, a speculation drops", func(t *testing.T, s *runState, stats func() CoordStats) {
			s.queue = []shard{
				{start: 0, end: 2, attempts: s.maxAttempts},
				{start: 0, end: 2, attempts: s.maxAttempts, speculative: true}, // dropped
				{start: 2, end: 4, attempts: s.maxAttempts - 1},
			}
			if sh, local, ok := s.next(); !ok || local || sh.start != 2 {
				t.Errorf("next = %+v local=%v ok=%v, want [2,4) remote", sh, local, ok)
			}
			if sh, local, ok := s.next(); !ok || !local || sh.start != 0 {
				t.Errorf("next = %+v local=%v ok=%v, want [0,2) local", sh, local, ok)
			}
			if st := stats(); st.LocalFallbacks != 1 {
				t.Errorf("LocalFallbacks = %d, want 1", st.LocalFallbacks)
			}
		}},
		{"one tick steals slow and orphaned flights once each", func(t *testing.T, s *runState, stats func() CoordStats) {
			now := t0.Add(stealAfter + time.Second)
			slow := s.dispatched(shard{start: 0, end: 2}, "a", t0)
			orphan := s.dispatched(shard{start: 2, end: 4}, "gone", now)
			s.dispatched(shard{start: 4, end: 6}, "b", now) // fresh, live
			spec := shard{start: 6, end: 8, speculative: true}
			s.dispatched(spec, "a", t0) // a speculation is never stolen
			want := []shard{
				{start: 0, end: 2, speculative: true, parent: slow, avoid: "a"},
				{start: 2, end: 4, speculative: true, parent: orphan, avoid: "gone"},
			}
			if got := s.steal(now, []string{"a", "b"}); !reflect.DeepEqual(got, want) {
				t.Fatalf("steal = %+v, want %+v", got, want)
			}
			if got := s.steal(now.Add(stealAfter), []string{"a", "b"}); len(got) != 0 {
				t.Errorf("second tick re-stole %+v", got)
			}
			if !reflect.DeepEqual(s.queue, want) || stats().Stolen != 2 {
				t.Errorf("queue %+v, Stolen %d; want the two speculations", s.queue, stats().Stolen)
			}
		}},
		{"queued shard already covered is skipped", func(t *testing.T, s *runState, stats func() CoordStats) {
			s.queue = []shard{{start: 0, end: 2}, {start: 2, end: 4}}
			s.result(0, shard{start: 2, end: 4}, fakeUnits(2, 4))
			if sh, _, ok := s.next(); !ok || sh.start != 0 {
				t.Errorf("next = %+v ok=%v, want [0,2)", sh, ok)
			}
			if _, _, ok := s.next(); ok {
				t.Error("queue not empty")
			}
		}},
		{"empty fleet requeues whole with one more attempt", func(t *testing.T, s *runState, stats func() CoordStats) {
			s.unplaced(shard{start: 0, end: 4})
			if want := []shard{{start: 0, end: 4, attempts: 1}}; !reflect.DeepEqual(s.queue, want) {
				t.Errorf("queue %+v, want %+v", s.queue, want)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := &Coordinator{StealAfter: stealAfter}
			s := c.newRunState(resolve(t, JobSpec{Kind: KindSweep, Sweep: testSweepSpec()}), nil)
			tc.run(t, s, c.Stats)
		})
	}
}

// TestRunStateRecomputesBadJournal: of the journalled shards only the
// well-formed, in-range, non-overlapping ones are folded in; the rest
// of the grid is left to compute.
func TestRunStateRecomputesBadJournal(t *testing.T) {
	camp := resolve(t, JobSpec{Kind: KindSweep, Sweep: testSweepSpec()})
	journalled := func(start, end int, corrupt func(*ShardResponse)) ShardResult {
		units, err := camp.Run(context.Background(), 1, start, end)
		if err != nil {
			t.Fatal(err)
		}
		resp := &ShardResponse{Units: units}
		corrupt(resp)
		raw, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return ShardResult{Start: start, End: end, Units: raw}
	}
	keep := func(*ShardResponse) {}
	completed := []ShardResult{
		journalled(0, 2, keep),
		journalled(1, 3, keep), // overlaps [0,2)
		journalled(4, 6, func(r *ShardResponse) { r.Units[0].Costs = r.Units[0].Costs[:1] }),
		{Start: 10, End: 14, Units: []byte(`{"units":[]}`)}, // past the grid
		{Start: 6, End: 8, Units: []byte(`{`)},
	}
	s := (&Coordinator{}).newRunState(camp, completed)
	if s.done != 2 || len(s.merged) != 2 {
		t.Fatalf("folded %d units (%d merged), want the 2 of [0,2)", s.done, len(s.merged))
	}
	if want := []gap{{start: 2, end: 12}}; !reflect.DeepEqual(s.gaps(), want) {
		t.Errorf("gaps %+v, want %+v", s.gaps(), want)
	}
}

// TestRunStateProgressInAcceptanceOrder: completions arriving out of
// range order, a late duplicate among them, give a Progress sequence
// that strictly increases to the total and OnShard calls in the order
// the results were accepted.
func TestRunStateProgressInAcceptanceOrder(t *testing.T) {
	c := &Coordinator{}
	s := c.newRunState(resolve(t, JobSpec{Kind: KindSweep, Sweep: testSweepSpec()}), nil)
	var progress []int
	var shards [][2]int
	opt := RunOptions{
		Progress: func(done, total int) {
			if total != s.total {
				t.Errorf("Progress total %d, want %d", total, s.total)
			}
			progress = append(progress, done)
		},
		OnShard: func(r ShardResult) { shards = append(shards, [2]int{r.Start, r.End}) },
	}
	for _, r := range [][2]int{{8, 12}, {0, 4}, {0, 4}, {4, 6}, {6, 8}} {
		sh := shard{start: r[0], end: r[1]}
		o := outcome{id: s.dispatched(sh, "a", t0), sh: sh, worker: "a", resp: &ShardResponse{Units: fakeUnits(r[0], r[1])}}
		if err := c.settle(context.Background(), s, o, opt); err != nil {
			t.Fatal(err)
		}
	}
	if want := []int{4, 8, 10, 12}; !reflect.DeepEqual(progress, want) {
		t.Errorf("Progress sequence %v, want %v", progress, want)
	}
	if want := [][2]int{{8, 12}, {0, 4}, {4, 6}, {6, 8}}; !reflect.DeepEqual(shards, want) {
		t.Errorf("OnShard order %v, want %v", shards, want)
	}
	if !s.complete() || c.Stats().LateDuplicates != 1 {
		t.Errorf("complete %v, LateDuplicates %d; want true, 1", s.complete(), c.Stats().LateDuplicates)
	}
}

// TestPickWorkerBench: a 429 benches a worker for exactly its
// Retry-After, consecutive other failures double the bench up to
// RetryCap, a success unbenches, and a fully benched fleet offers the
// worker that returns first with the wait until then.
func TestPickWorkerBench(t *testing.T) {
	const base, retryCap = 100 * time.Millisecond, time.Second
	c := &Coordinator{RetryBase: base, RetryCap: retryCap}
	fleet := []string{"a"}

	c.benchWorker("a", 3*time.Second, t0)
	if w, wait := c.pickWorker(fleet, "", t0); w != "a" || wait != 3*time.Second {
		t.Fatalf("after a 429: pick %s wait %v, want a after exactly 3s", w, wait)
	}

	c.unbench("a")
	for fails, d := 1, base; fails <= 6; fails++ {
		c.benchWorker("a", 0, t0)
		if _, wait := c.pickWorker(fleet, "", t0); wait < d/2 || wait > d {
			t.Errorf("failure %d: bench %v, want within [%v, %v]", fails, wait, d/2, d)
		}
		d = min(2*d, retryCap)
	}

	c.unbench("a")
	if w, wait := c.pickWorker(fleet, "", t0); w != "a" || wait != 0 {
		t.Errorf("after a success: pick %s wait %v, want a at once", w, wait)
	}
	c.benchWorker("a", 0, t0)
	if _, wait := c.pickWorker(fleet, "", t0); wait > base {
		t.Errorf("streak survived a success: bench %v, want at most %v", wait, base)
	}

	c.benchWorker("a", 3*time.Second, t0)
	c.benchWorker("b", 2*time.Second, t0)
	c.benchWorker("c", 5*time.Second, t0)
	if w, wait := c.pickWorker([]string{"a", "b", "c"}, "", t0.Add(time.Second)); w != "b" || wait != time.Second {
		t.Errorf("benched fleet: pick %s wait %v, want b after 1s", w, wait)
	}
}
