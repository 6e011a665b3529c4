package dist

import (
	"cmp"
	"encoding/json"
	"slices"
	"time"

	"budgetwf/internal/exp"
)

// shard is one outstanding unit range with its remote attempt count.
// A speculative shard is a duplicate of a still-in-flight primary: on
// success the first result wins; on failure it is dropped silently,
// because its primary still owns the range.
type shard struct {
	start, end  int
	attempts    int
	speculative bool
	// parent is the flight id of the primary a speculation shadows, so
	// a failed speculation can re-arm the primary for stealing.
	parent int64
	// avoid is the worker the primary is stuck on: a speculation is
	// pointless on the same worker, so placement prefers any other.
	avoid string
}

// flight is one in-flight remote attempt, tracked for stealing.
type flight struct {
	sh         shard
	worker     string
	started    time.Time
	speculated bool
}

// runState is the decision core of one coordinator run: unit coverage
// and the merged units, the LIFO shard queue, the flight table, and the
// attempt, split and speculation rules. It starts no goroutine, takes
// no lock and reads no clock. Run feeds it events — the journalled
// shards, a placement, an attempt's units or failure, a steal tick —
// from its own goroutine, with the time they happened, and carries out
// what it answers; so a run's decisions replay from its events alone.
type runState struct {
	total       int
	maxAttempts int
	stealAfter  time.Duration
	stats       *counters

	covered []bool
	done    int // covered units
	merged  []exp.Unit
	queue   []shard // popped from the end
	flights map[int64]*flight
	lastID  int64
}

// newRunState starts a run of camp from the shard results a previous
// incarnation journalled: their units are covered up front and never
// recomputed. An entry that is out of range, malformed or overlaps an
// earlier one is skipped, so a corrupt journal costs recomputation,
// never a wrong merge.
func (c *Coordinator) newRunState(camp *Campaign, completed []ShardResult) *runState {
	s := &runState{
		total:       camp.Cells(),
		maxAttempts: c.maxAttempts(),
		stealAfter:  c.stealAfter(),
		stats:       &c.stats,
		flights:     make(map[int64]*flight),
	}
	s.covered = make([]bool, s.total)
	for _, sr := range completed {
		if sr.Start < 0 || sr.End > s.total || sr.End <= sr.Start || s.coveredIn(sr.Start, sr.End) > 0 {
			continue
		}
		var resp ShardResponse
		if json.Unmarshal(sr.Units, &resp) != nil || camp.covers(resp.Units, sr.Start, sr.End) != nil {
			continue
		}
		s.cover(sr.Start, sr.End, resp.Units)
	}
	return s
}

func (s *runState) complete() bool { return s.done == s.total }

// coveredIn counts the covered units of [start, end).
func (s *runState) coveredIn(start, end int) int {
	n := 0
	for _, c := range s.covered[start:end] {
		if c {
			n++
		}
	}
	return n
}

func (s *runState) cover(start, end int, units []exp.Unit) {
	for i := start; i < end; i++ {
		s.covered[i] = true
	}
	s.done += end - start
	s.merged = append(s.merged, units...)
}

// gap is a maximal uncovered unit range.
type gap struct{ start, end int }

// gaps lists the maximal runs of uncovered units.
func (s *runState) gaps() []gap {
	var out []gap
	for i := 0; i < s.total; {
		if s.covered[i] {
			i++
			continue
		}
		j := i
		for j < s.total && !s.covered[j] {
			j++
		}
		out = append(out, gap{start: i, end: j})
		i = j
	}
	return out
}

// shardGaps queues every uncovered range in shards of at most n units.
func (s *runState) shardGaps(n int) {
	for _, g := range s.gaps() {
		for start := g.start; start < g.end; start += n {
			s.queue = append(s.queue, shard{start: start, end: min(start+n, g.end)})
		}
	}
}

// next pops the shard to place next, skipping any whose units are all
// covered (a steal winner beat it); ok is false once the queue is
// empty. local means its remote attempts are spent: it runs on the
// coordinator, so no worker failure mode can lose it. A speculation
// whose attempts are spent is dropped instead.
func (s *runState) next() (sh shard, local, ok bool) {
	for len(s.queue) > 0 {
		sh = s.queue[len(s.queue)-1]
		s.queue = s.queue[:len(s.queue)-1]
		if s.coveredIn(sh.start, sh.end) == sh.end-sh.start {
			continue
		}
		if sh.attempts >= s.maxAttempts {
			if sh.speculative {
				continue // its primary still owns the range
			}
			s.stats.localFB.Add(1)
			return sh, true, true
		}
		return sh, false, true
	}
	return shard{}, false, false
}

// dispatched records sh placed on worker, in flight from started on;
// the id it returns names the flight in the attempt's outcome.
func (s *runState) dispatched(sh shard, worker string, started time.Time) int64 {
	s.lastID++
	s.flights[s.lastID] = &flight{sh: sh, worker: worker, started: started}
	s.stats.dispatched.Add(1)
	return s.lastID
}

// result is an attempt of sh delivering units; id is its flight, 0 for
// a local run. The units merge unless any of them is covered already —
// the (job, shard range, epoch) dedupe that makes steal races and a
// previous incarnation's stragglers harmless — and result reports
// whether they did.
func (s *runState) result(id int64, sh shard, units []exp.Unit) bool {
	delete(s.flights, id)
	if s.coveredIn(sh.start, sh.end) > 0 {
		s.stats.lateDup.Add(1)
		return false
	}
	s.cover(sh.start, sh.end, units)
	return true
}

// failed is a remote attempt of sh failing. A speculation re-arms its
// primary for a later steal and requeues nothing; a primary comes back
// with one more attempt, in halves when it spans more than one unit, so
// its work redistributes over the surviving fleet.
func (s *runState) failed(id int64, sh shard) {
	delete(s.flights, id)
	if sh.speculative {
		if f := s.flights[sh.parent]; f != nil {
			f.speculated = false
		}
		return
	}
	sh.attempts++
	retry := []shard{sh}
	if n := sh.end - sh.start; n > 1 {
		mid := sh.start + n/2
		retry = []shard{{start: sh.start, end: mid, attempts: sh.attempts}, {start: mid, end: sh.end, attempts: sh.attempts}}
	}
	s.requeue(retry...)
}

// unplaced is an attempt of sh that found no live worker: it comes
// back whole with one more attempt, so a fleet that stays empty still
// ends in the local fallback.
func (s *runState) unplaced(sh shard) {
	sh.attempts++
	s.requeue(sh)
}

func (s *runState) requeue(shs ...shard) {
	s.queue = append(s.queue, shs...)
	s.stats.requeued.Add(1)
}

// steal is a steal tick at now with the live fleet: each primary in
// flight longer than stealAfter, or on a worker no longer in the fleet,
// is queued once as a speculation that avoids its worker. It returns
// the speculations, in flight order.
func (s *runState) steal(now time.Time, fleet []string) []shard {
	var stolen []shard
	for id, f := range s.flights {
		if f.speculated || f.sh.speculative {
			continue
		}
		if now.Sub(f.started) <= s.stealAfter && slices.Contains(fleet, f.worker) {
			continue
		}
		f.speculated = true
		stolen = append(stolen, shard{start: f.sh.start, end: f.sh.end, speculative: true, parent: id, avoid: f.worker})
	}
	slices.SortFunc(stolen, func(a, b shard) int { return cmp.Compare(a.parent, b.parent) })
	s.queue = append(s.queue, stolen...)
	s.stats.stolen.Add(int64(len(stolen)))
	return stolen
}
