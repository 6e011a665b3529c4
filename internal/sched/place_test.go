package sched

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"budgetwf/internal/platform"
	"budgetwf/internal/stoch"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// sameBits reports whether two candidates name the same host with the
// same begin, EFT and cost, bit for bit (NaN included).
func sameBits(a, b candidate) bool {
	return a.vm == b.vm && a.cat == b.cat &&
		math.Float64bits(a.begin) == math.Float64bits(b.begin) &&
		math.Float64bits(a.eft) == math.Float64bits(b.eft) &&
		math.Float64bits(a.cost) == math.Float64bits(b.cost)
}

// infPricedPlatform adds a category priced at +Inf per second to the
// paper's platform: a zero-size edge leaving a VM of it costs 0·∞, NaN.
func infPricedPlatform() *platform.Platform {
	p := platform.Default()
	p.Categories = append(p.Categories, platform.Category{Name: "priceless", Speed: 8e9, CostPerSec: math.Inf(1)})
	return p
}

// zeroEdgeWorkflow is a random layered DAG in which a third of the
// edges carry no data.
func zeroEdgeWorkflow(r *rand.Rand) *wf.Workflow {
	w := wf.New("zero-edges")
	n := 4 + r.Intn(20)
	for i := 0; i < n; i++ {
		w.AddTask("t", stoch.Dist{Mean: 1e9 * (1 + r.Float64()*50), Sigma: 1e9 * r.Float64()})
	}
	for j := 1; j < n; j++ {
		for k := 0; k < 1+r.Intn(3); k++ {
			i := r.Intn(j)
			size := 0.0
			if r.Intn(3) > 0 {
				size = r.Float64() * 400e6
			}
			_ = w.AddEdge(wf.TaskID(i), wf.TaskID(j), size)
		}
	}
	return w
}

// TestPlaceMatchesEval: on random partial states, placing a task from
// prepare's fresh-VM inputs equals eval, by math.Float64bits, on every
// used VM that runs no predecessor of the task and on every fresh VM;
// runsPred names exactly the VMs that run one; and the enumerations
// built on place (appendCandidates, bestHost, cgHost, peftHost) equal
// the same enumerations on plain eval. It covers the paper's families,
// a two-provider market (per-category bandwidth, transfer latency) and
// a +Inf-priced category under zero-size edges, whose upload cost is
// NaN.
func TestPlaceMatchesEval(t *testing.T) {
	plats := equivPlatforms(t)
	plats["inf-priced"] = infPricedPlatform()
	r := rand.New(rand.NewSource(7))
	type instance struct {
		name string
		w    *wf.Workflow
	}
	var instances []instance
	for _, typ := range wfgen.AllPaperTypes() {
		for seed := uint64(0); seed < 2; seed++ {
			instances = append(instances, instance{fmt.Sprintf("%s/%d", typ, seed), paperInstance(t, typ, 30, seed)})
		}
	}
	for i := 0; i < 6; i++ {
		instances = append(instances, instance{fmt.Sprintf("zero-edges/%d", i), zeroEdgeWorkflow(r)})
	}
	checked, nan := 0, 0
	names := make([]string, 0, len(plats))
	for pn := range plats {
		names = append(names, pn)
	}
	sort.Strings(names)
	for _, pn := range names {
		p := plats[pn]
		for _, inst := range instances {
			ctx, err := newContext(inst.w, p)
			if err != nil {
				t.Fatal(err)
			}
			order, err := inst.w.TopoOrder()
			if err != nil {
				t.Fatal(err)
			}
			st := newState(ctx)
			for _, id := range order {
				label := fmt.Sprintf("%s %s task %d", pn, inst.name, id)
				onVM := make(map[int]bool)
				for _, e := range ctx.pred[id] {
					onVM[st.taskVM[e.From]] = true
				}
				want := make([]candidate, 0, len(st.vms)+p.NumCategories())
				for i := range st.vms {
					want = append(want, st.eval(id, i, st.vms[i].cat))
				}
				for k := range p.Categories {
					want = append(want, st.eval(id, -1, k))
				}
				in, terms := st.prepare(id)
				for i := range st.vms {
					if st.runsPred(i, id) != onVM[i] {
						t.Fatalf("%s: runsPred(%d) = %v, want %v", label, i, !onVM[i], onVM[i])
					}
					var got candidate
					st.place(&got, id, in, terms, i)
					if !sameBits(got, want[i]) {
						t.Fatalf("%s on VM %d: placed %+v, eval %+v", label, i, got, want[i])
					}
					if onVM[i] {
						continue // place ran eval itself
					}
					checked++
					if math.IsNaN(got.cost) {
						nan++
					}
				}
				for k := range p.Categories {
					if got := st.placeFresh(in, terms[k], k); !sameBits(got, want[len(st.vms)+k]) {
						t.Fatalf("%s on a fresh VM of category %d: placed %+v, eval %+v", label, k, got, want[len(st.vms)+k])
					}
				}
				listed := st.appendCandidates(nil, id)
				for i := range want {
					if !sameBits(listed[i], want[i]) {
						t.Fatalf("%s: appendCandidates[%d] = %+v, eval %+v", label, i, listed[i], want[i])
					}
				}
				for _, a := range []float64{0, 0.01, math.Inf(1)} {
					if got, ref := st.bestHost(id, a), evalBestHost(st, id, a); !sameBits(got, ref) {
						t.Fatalf("%s allowance %v: bestHost %+v, on eval %+v", label, a, got, ref)
					}
				}
				for k := range p.Categories {
					ref := want[len(st.vms)+k]
					for i := range st.vms {
						if st.vms[i].cat == k && less(want[i], ref) {
							ref = want[i]
						}
					}
					if got := st.cgHost(id, k); !sameBits(got, ref) {
						t.Fatalf("%s category %d: cgHost %+v, on eval %+v", label, k, got, ref)
					}
				}
				oct := make([]float64, p.NumCategories())
				for k := range oct {
					oct[k] = float64((int(id)+k)%3) * 100 // ties and offsets, without a draw
				}
				if got, ref := st.peftHost(id, oct), peftScan(want, oct); !sameBits(got, ref) {
					t.Fatalf("%s OCT %v: peftHost %+v, on eval %+v", label, oct, got, ref)
				}
				// Grow the state: a random used VM, or a fresh one.
				pick := r.Intn(len(want))
				if pick >= len(st.vms) && r.Intn(2) == 0 && len(st.vms) > 0 {
					pick = r.Intn(len(st.vms))
				}
				st.assign(id, want[pick])
			}
		}
	}
	if checked == 0 || nan == 0 {
		t.Errorf("%d placements on used VMs checked, %d of them NaN: the NaN case went unexercised", checked, nan)
	}
}

// appendCandidates appends every host option for task t to dst: each
// VM already in use plus one fresh VM per category (§IV-A: "the set of
// host candidates ... consists of already used VMs plus one fresh VM
// of each category"). It is the scan the tests hold the selections
// that read the readiness index to.
func (s *state) appendCandidates(dst []candidate, t wf.TaskID) []candidate {
	in, terms := s.prepare(t)
	return append(dst, s.placeAll(t, in, terms, -1)...)
}

// bestHost is HEFT's selection of task t under the allowance
// (heftPlan): pickBest over the hosts the readiness index yields.
func (s *state) bestHost(t wf.TaskID, allowance float64) candidate {
	in, terms := s.prepare(t)
	used, fresh := s.hosts(t, in, terms, allowance, -1, nil)
	return pickBest(used, fresh, allowance)
}
