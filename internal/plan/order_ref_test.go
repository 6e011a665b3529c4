package plan

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"budgetwf/internal/wf"
)

// rebuildOrderReference is RebuildOrder as it was before the linear
// bucket fill — a rank map and one stable sort per VM — kept as the
// reference the fill is compared against.
func rebuildOrderReference(s *Schedule) [][]wf.TaskID {
	rank := make(map[wf.TaskID]int, len(s.ListT))
	for i, t := range s.ListT {
		rank[t] = i
	}
	order := make([][]wf.TaskID, len(s.VMCats))
	for task, vm := range s.TaskVM {
		if vm == Unassigned {
			continue
		}
		order[vm] = append(order[vm], wf.TaskID(task))
	}
	for _, o := range order {
		sort.SliceStable(o, func(a, b int) bool {
			ra, oka := rank[o[a]]
			rb, okb := rank[o[b]]
			switch {
			case oka && okb:
				return ra < rb
			case oka:
				return true
			case okb:
				return false
			default:
				return o[a] < o[b]
			}
		})
	}
	return order
}

// Property: the bucket fill orders every VM as the reference does, on
// the lists the JSON decoder can hand it too: shuffled, with tasks
// missing or listed twice, IDs out of range, and unassigned tasks.
func TestRebuildOrderMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		_, s := randomPlanCase(r)
		n := len(s.TaskVM)
		r.Shuffle(n, func(i, j int) { s.ListT[i], s.ListT[j] = s.ListT[j], s.ListT[i] })
		if seed%2 != 0 {
			s.ListT = s.ListT[:r.Intn(n+1)]
			for k := r.Intn(4); k > 0; k-- {
				s.ListT = append(s.ListT, wf.TaskID(r.Intn(n+4)-2))
			}
			s.TaskVM[r.Intn(n)] = Unassigned
		}
		want := rebuildOrderReference(s)
		s.RebuildOrder()
		if len(s.Order) != len(want) {
			return false
		}
		for v := range want {
			if len(s.Order[v]) != len(want[v]) {
				t.Logf("seed %d: VM %d: got %v, want %v", seed, v, s.Order[v], want[v])
				return false
			}
			for i := range want[v] {
				if s.Order[v][i] != want[v][i] {
					t.Logf("seed %d: VM %d: got %v, want %v", seed, v, s.Order[v], want[v])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// The orders share one backing array, so appending to one VM's order
// (Assign) must reallocate it and not run into the next VM's segment.
func TestRebuildOrderSegmentsDoNotOverlap(t *testing.T) {
	s := validChainSchedule()
	s.RebuildOrder()
	s.Order[0] = append(s.Order[0], 3)
	if s.Order[1][0] != 1 || s.Order[1][1] != 3 {
		t.Errorf("append to VM 0's order overwrote VM 1's: %v", s.Order[1])
	}
}
