package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"budgetwf/internal/platform"
	"budgetwf/internal/stoch"
	"budgetwf/internal/wf"
)

// indexPlatforms are the platforms FuzzIndexedPickMatchesScan draws
// from: the paper's, the two-provider market (per-category bandwidth,
// transfer latency), and the paper's with a free first category, on
// which every VM of it ready by the data costs the same.
func indexPlatforms(t testing.TB) []*platform.Platform {
	free := platform.Default()
	free.Categories[0].CostPerSec = 0
	eq := equivPlatforms(t)
	return []*platform.Platform{eq["scalar"], eq["market"], free}
}

// randomIndexedState books the producers of a random bipartite
// workflow on random VMs and returns the state with the consumers left
// to place. VMs become ready at a few values, their neighbours one ulp
// away, and repeats of both, so readiness ties and near-ties are
// common, as are EFT ties between VMs ready at different times; each
// consumer reads from several producers, whose VMs lie in several
// categories.
func randomIndexedState(t *testing.T, r *rand.Rand, p *platform.Platform) (*state, []wf.TaskID) {
	w := wf.New("indexed")
	nProd, nCons := 4+r.Intn(40), 1+r.Intn(4)
	for i := 0; i < nProd+nCons; i++ {
		w.AddTask("t", stoch.Dist{Mean: 1e9 * (1 + r.Float64()*80), Sigma: 1e9 * r.Float64()})
	}
	var cons []wf.TaskID
	for c := nProd; c < nProd+nCons; c++ {
		id := wf.TaskID(c)
		cons = append(cons, id)
		for _, from := range r.Perm(nProd)[:1+r.Intn(min(6, nProd))] {
			size := 0.0
			if r.Intn(3) > 0 {
				size = r.Float64() * 400e6
			}
			if err := w.AddEdge(wf.TaskID(from), id, size); err != nil {
				t.Fatal(err)
			}
		}
		if r.Intn(2) == 0 {
			if err := w.SetExternalIO(id, r.Float64()*200e6, r.Float64()*200e6); err != nil {
				t.Fatal(err)
			}
		}
	}
	ctx, err := newContext(w, p)
	if err != nil {
		t.Fatal(err)
	}
	st := newState(ctx)
	// Half the values lie just under a power of two, so that a task's
	// EFT on VMs one ulp apart may round to one value.
	pool := make([]float64, 1+r.Intn(6))
	for i := range pool {
		pool[i] = float64(r.Intn(40)) * 50 * (1 + r.Float64())
		if r.Intn(2) == 0 {
			pool[i] = math.Ldexp(1, 8+r.Intn(4)) - r.Float64()*100
		}
	}
	readyAt := func() float64 {
		v := pool[r.Intn(len(pool))]
		switch r.Intn(4) {
		case 0:
			v = math.Nextafter(v, math.Inf(1))
		case 1:
			v = math.Nextafter(v, math.Inf(-1))
		}
		return max(v, 0)
	}
	for pt := 0; pt < nProd; pt++ {
		c := candidate{vm: -1, cat: r.Intn(p.NumCategories())}
		if len(st.vms) > 0 && r.Intn(2) == 0 {
			c.vm = r.Intn(len(st.vms))
			c.cat = st.vms[c.vm].cat
			c.begin = st.vms[c.vm].readyAt
		}
		c.eft = max(readyAt(), c.begin)
		st.assign(wf.TaskID(pt), c)
	}
	return st, cons
}

// randomFanInState books a random number of VMs, at least 8, then the
// producers of a fan-in task, at least 20, and returns the state with
// the fan-in task left to place. shape chooses the data:
//
//   - 0: edge sizes spread over 0 to 1e12 (a quarter of them 0), the
//     producers over every VM;
//   - 1: the same, with an ExternalIn larger than all edges;
//   - 2: every producer but one on a single VM, whose local bytes
//     nearly equal the fresh-VM total, so that their difference
//     cancels;
//   - 3: the producers over every VM, edge sizes of a few magnitudes
//     that sum inexactly.
func randomFanInState(t *testing.T, r *rand.Rand, p *platform.Platform, shape int) (*state, wf.TaskID) {
	w := wf.New("fan-in")
	nVM, nProd := 8+r.Intn(12), 20+r.Intn(40)
	for i := 0; i < nVM+nProd+1; i++ {
		w.AddTask("t", stoch.Dist{Mean: 1e9 * (1 + r.Float64()*80), Sigma: 1e9 * r.Float64()})
	}
	sink := wf.TaskID(nVM + nProd)
	size := func() float64 {
		switch {
		case r.Intn(4) == 0:
			return 0
		case shape == 3:
			return math.Ldexp(1+r.Float64(), 10*r.Intn(4)) / 3
		}
		return math.Pow(10, 12*r.Float64()) * r.Float64()
	}
	largest := 0.0
	for k := 0; k < nProd; k++ {
		x := size()
		if shape == 2 {
			x = 1e11 + 9e11*r.Float64()
			if k == 0 {
				x = r.Float64() * 1e3
			}
		}
		largest = max(largest, x)
		if err := w.AddEdge(wf.TaskID(nVM+k), sink, x); err != nil {
			t.Fatal(err)
		}
	}
	in := 0.0
	switch {
	case shape == 1:
		in = largest * (1 + r.Float64()*1e3)
	case r.Intn(2) == 0:
		in = size()
	}
	if err := w.SetExternalIO(sink, in, r.Float64()*200e6); err != nil {
		t.Fatal(err)
	}
	ctx, err := newContext(w, p)
	if err != nil {
		t.Fatal(err)
	}
	st := newState(ctx)
	// The first nVM tasks open the VMs. Producer k runs on VM k when
	// k < nVM and on a random VM after, except under shape 2, where the
	// first runs on a random VM but VM 0 and every other on VM 0.
	for i := 0; i < nVM+nProd; i++ {
		c := candidate{vm: -1, cat: r.Intn(p.NumCategories())}
		if i >= nVM {
			switch k := i - nVM; {
			case shape == 2 && k == 0:
				c.vm = 1 + r.Intn(nVM-1)
			case shape == 2:
				c.vm = 0
			case k < nVM:
				c.vm = k
			default:
				c.vm = r.Intn(nVM)
			}
			c.cat, c.begin = st.vms[c.vm].cat, st.vms[c.vm].readyAt
		}
		c.eft = c.begin + r.Float64()*2000
		st.assign(wf.TaskID(i), c)
	}
	return st, sink
}

// FuzzEFTFloorBelowEval: on random states with a fan-in task, the EFT
// floor of every VM that runs a predecessor is no later than eval's EFT
// there, and eval after prepare, which reads the gathered edges, is
// eval on the predecessor edges bit for bit on every VM.
func FuzzEFTFloorBelowEval(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed, uint8(seed), uint8(seed/3))
	}
	plats := indexPlatforms(f)
	f.Fuzz(func(t *testing.T, seed int64, plat, shape uint8) {
		r := rand.New(rand.NewSource(seed))
		p := plats[int(plat)%len(plats)]
		st, sink := randomFanInState(t, r, p, int(shape%4))
		label := fmt.Sprintf("seed %d platform %d shape %d", seed, plat, shape%4)
		walked := make([]candidate, len(st.vms))
		for i := range st.vms {
			walked[i] = st.eval(sink, i, st.vms[i].cat)
		}
		in, _ := st.prepare(sink)
		for i := range st.vms {
			if got := st.eval(sink, i, st.vms[i].cat); !sameBits(got, walked[i]) {
				t.Fatalf("%s VM %d: eval over the gathered edges %+v, over the edges %+v", label, i, got, walked[i])
			}
		}
		if len(st.g.onVM) < 2 {
			t.Fatalf("%s: the predecessors run on %d VMs", label, len(st.g.onVM))
		}
		for k, i := range st.g.onVM {
			floor, want := st.eftFloor(sink, in, k), walked[i].eft
			if !(floor <= want) {
				t.Fatalf("%s VM %d: floor %v above eval's EFT %v (%d predecessors, %v bytes in all, %v local)",
					label, i, floor, want, len(st.g.from), in.missing, st.g.loc[k])
			}
		}
	})
}

// checkIndex fails unless each category's run lists exactly its used
// VMs, ordered by (readyAt, index), with their readyAt alongside.
func checkIndex(t *testing.T, st *state) {
	seen := 0
	for k := range st.terms {
		vms, ats := st.catVMs(k)
		for j, i := range vms {
			if st.vms[i].cat != k || ats[j] != st.vms[i].readyAt {
				t.Fatalf("category %d run %v at %v: VM %d is of category %d, ready at %v", k, vms, ats, i, st.vms[i].cat, st.vms[i].readyAt)
			}
			if j > 0 && (ats[j-1] > ats[j] || ats[j-1] == ats[j] && vms[j-1] > i) {
				t.Fatalf("category %d run %v at %v is out of order", k, vms, ats)
			}
		}
		seen += len(vms)
	}
	if seen != len(st.vms) {
		t.Fatalf("the index holds %d VMs, the state %d", seen, len(st.vms))
	}
}

// FuzzIndexedPickMatchesScan: on random states, the selections that
// read the readiness index answer as the scans over every host do, bit
// for bit — bestHost as the selector over plain eval, bestOfCategory as
// the EFT fold over the category's VMs, and pickCache.repick over
// the index's candidates with the same pick, lo, hi, capped and state
// as over every candidate, and the same lowest EFT, which minMinPlan
// takes as a re-scanned task's key. The allowances include each candidate's
// exact cost and the floats either side of it, 0, +Inf and NaN. A
// nonzero fanIn (mod 5) places the fan-in task of randomFanInState
// instead, of shape fanIn%5 − 1, whose hosts skip the VMs that run a
// predecessor by their EFT floors.
func FuzzIndexedPickMatchesScan(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed), uint8(0))
		f.Add(seed, uint8(seed), uint8(1+seed%4))
	}
	// States on which dropping a tie from the walks changed the pick:
	// an EFT tie after the data (201), a cost tie among VMs ready after
	// it on the free category (-380).
	f.Add(int64(201), uint8(156), uint8(0))
	f.Add(int64(-380), uint8(215), uint8(0))
	plats := indexPlatforms(f)
	f.Fuzz(func(t *testing.T, seed int64, plat, fanIn uint8) {
		r := rand.New(rand.NewSource(seed))
		p := plats[int(plat)%len(plats)]
		var st *state
		var cons []wf.TaskID
		if fanIn%5 == 0 {
			st, cons = randomIndexedState(t, r, p)
		} else {
			var sink wf.TaskID
			st, sink = randomFanInState(t, r, p, int(fanIn%5)-1)
			cons = []wf.TaskID{sink}
		}
		checkIndex(t, st)
		for _, id := range cons {
			var used, fresh []candidate
			for i := range st.vms {
				used = append(used, st.eval(id, i, st.vms[i].cat))
			}
			for k := range p.Categories {
				fresh = append(fresh, st.eval(id, -1, k))
			}
			allowances := []float64{0, math.Inf(1), math.NaN()}
			for _, part := range [][]candidate{used, fresh} {
				for _, c := range part {
					allowances = append(allowances, c.cost, math.Nextafter(c.cost, math.Inf(1)), math.Nextafter(c.cost, math.Inf(-1)))
				}
			}
			for _, a := range allowances {
				label := fmt.Sprintf("seed %d platform %d fan-in %d task %d allowance %v", seed, plat, fanIn, id, a)
				if got, want := st.bestHost(id, a), evalBestHost(st, id, a); !sameBits(got, want) {
					t.Fatalf("%s: bestHost %+v, scan %+v", label, got, want)
				}
				var scan, indexed pickCache
				scan.repick(used, fresh, a)
				in, terms := st.prepare(id)
				if !st.finite(in, terms) {
					t.Fatalf("%s: the index does not serve a finite platform", label)
				}
				iu, ifr := st.hosts(id, in, terms, a, -1)
				low := indexed.repick(iu, ifr, a)
				if !sameBits(indexed.c, scan.c) || indexed.state != scan.state || indexed.capped != scan.capped ||
					math.Float64bits(indexed.lo) != math.Float64bits(scan.lo) || math.Float64bits(indexed.hi) != math.Float64bits(scan.hi) {
					t.Fatalf("%s: repick over the index %+v, over every host %+v", label, indexed, scan)
				}
				// minMinPlan's key after a re-scan: the lowest EFT the
				// index lists is the lowest over every host.
				if want := lowestEFT(used, fresh); math.Float64bits(low) != math.Float64bits(want) || lowestEFT(iu, ifr) != want {
					t.Fatalf("%s: lowest EFT %v over the index (repick %v), %v over every host", label, lowestEFT(iu, ifr), low, want)
				}
			}
			for k := range p.Categories {
				want := fresh[k]
				for i := range st.vms {
					if st.vms[i].cat == k && less(used[i], want) {
						want = used[i]
					}
				}
				if got := bestOfCategory(st, id, k); !sameBits(got, want) {
					t.Fatalf("seed %d platform %d fan-in %d task %d category %d: bestOfCategory %+v, scan %+v", seed, plat, fanIn, id, k, got, want)
				}
			}
		}
	})
}

// FuzzTCTFMatchesScan: on FuzzIndexedPickMatchesScan's states (its
// generator, seeds and fanIn), BDT's selection from the readiness index
// (tctfHost) answers as pickTCTF over every host, placed by plain eval,
// field for field. Each task is also placed with zero work: no weight
// and no bytes to stage, so that a VM ready after the data is billed
// nothing and finishes when it is ready. The sub-budgets include 0 and
// +Inf, each candidate's exact cost and the floats either side of it,
// the costs a few ulps and a relative 2⁻⁴⁰ of the spread above, where
// S − cost cancels into the eps clamp, and halfway between ct_min and
// each cost.
func FuzzTCTFMatchesScan(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed), uint8(0))
		f.Add(seed, uint8(seed), uint8(1+seed%4))
	}
	f.Add(int64(201), uint8(156), uint8(0))
	f.Add(int64(-380), uint8(215), uint8(0))
	// States on which a broken selection answered otherwise: stopping
	// the walk after the VMs ready by the data at an exact TCTF tie
	// (303), and reading ECT_max off a run's last VM although it runs a
	// predecessor (22).
	f.Add(int64(303), uint8(101), uint8(100))
	f.Add(int64(22), uint8(227), uint8(55))
	plats := indexPlatforms(f)
	f.Fuzz(func(t *testing.T, seed int64, plat, fanIn uint8) {
		r := rand.New(rand.NewSource(seed))
		p := plats[int(plat)%len(plats)]
		var st *state
		var cons []wf.TaskID
		if fanIn%5 == 0 {
			st, cons = randomIndexedState(t, r, p)
		} else {
			var sink wf.TaskID
			st, sink = randomFanInState(t, r, p, int(fanIn%5)-1)
			cons = []wf.TaskID{sink}
		}
		for _, zero := range []bool{false, true} {
			for _, id := range cons {
				if zero {
					st.ctx.cons[id] = 0
					for j := range st.ctx.pred[id] {
						st.ctx.pred[id][j].Size = 0
					}
					if err := st.ctx.w.SetExternalIO(id, 0, st.ctx.tasks[id].ExternalOut); err != nil {
						t.Fatal(err)
					}
					st.prepare(id) // eval reads the edges prepare gathered
				}
				var all []candidate
				for i := range st.vms {
					all = append(all, st.eval(id, i, st.vms[i].cat))
				}
				for k := range p.Categories {
					all = append(all, st.eval(id, -1, k))
				}
				ctMin := infinite
				for _, c := range all {
					ctMin = min(ctMin, c.cost)
				}
				budgets := []float64{0, math.Inf(1)}
				for _, c := range all {
					up := c.cost
					for range 3 {
						up = math.Nextafter(up, math.Inf(1))
					}
					budgets = append(budgets, c.cost, math.Nextafter(c.cost, math.Inf(1)), math.Nextafter(c.cost, math.Inf(-1)),
						up, c.cost+(c.cost-ctMin)*0x1p-40, ctMin+(c.cost-ctMin)/2)
				}
				for _, S := range budgets {
					if got, want := st.tctfHost(id, S), pickTCTF(all, S); !sameBits(got, want) {
						t.Fatalf("seed %d platform %d fan-in %d task %d zero work %v sub-budget %v: index %+v, scan %+v",
							seed, plat, fanIn, id, zero, S, got, want)
					}
				}
				// PEFT's selection on an OCT row whose entries often tie, or
				// offset two categories' fastest EFTs exactly.
				oct := make([]float64, len(p.Categories))
				for k := range oct {
					oct[k] = float64(r.Intn(3)) * 100
					if r.Intn(3) == 0 {
						oct[k] = all[r.Intn(len(all))].eft
					}
				}
				want := 0
				for i, c := range all {
					if oeft, best := c.eft+oct[c.cat], all[want].eft+oct[all[want].cat]; oeft < best || oeft == best && less(c, all[want]) {
						want = i
					}
				}
				if got := st.peftHost(id, oct); !sameBits(got, all[want]) {
					t.Fatalf("seed %d platform %d fan-in %d task %d zero work %v OCT %v: PEFT's index %+v, scan %+v",
						seed, plat, fanIn, id, zero, oct, got, all[want])
				}
			}
		}
	})
}

// lowestEFT is the lowest EFT among the candidates.
func lowestEFT(used, fresh []candidate) float64 {
	low := math.Inf(1)
	for _, part := range [2][]candidate{used, fresh} {
		for _, c := range part {
			low = min(low, c.eft)
		}
	}
	return low
}
