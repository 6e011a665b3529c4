package server

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"budgetwf/internal/platform"
	"budgetwf/internal/stoch"
	"budgetwf/internal/wf"
)

func TestPlanCacheBasics(t *testing.T) {
	c := newPlanCache(2)
	if _, ok := c.get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.put(&cacheEntry{key: "a", algorithm: "1"})
	c.put(&cacheEntry{key: "b", algorithm: "2"})
	if e, ok := c.get("a"); !ok || e.algorithm != "1" {
		t.Fatal("lost entry a")
	}
	// a was just used, so inserting c evicts b.
	c.put(&cacheEntry{key: "c", algorithm: "3"})
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted as LRU")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a should have survived (recently used)")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("c should be present")
	}
	if c.stats().Size != 2 {
		t.Errorf("len = %d, want 2", c.stats().Size)
	}
	if c.stats().Hits != 3 || c.stats().Misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 3/2", c.stats().Hits, c.stats().Misses)
	}
	if got, want := c.stats().HitRate, 3.0/5.0; got != want {
		t.Errorf("hit rate = %v, want %v", got, want)
	}
}

func TestPlanCacheUpdateRefreshesRecency(t *testing.T) {
	c := newPlanCache(2)
	c.put(&cacheEntry{key: "a", algorithm: "1"})
	c.put(&cacheEntry{key: "b", algorithm: "1"})
	c.put(&cacheEntry{key: "a", algorithm: "9"}) // update, promotes a
	c.put(&cacheEntry{key: "c", algorithm: "1"}) // evicts b
	if _, ok := c.get("b"); ok {
		t.Error("b survived eviction")
	}
	if e, ok := c.get("a"); !ok || e.algorithm != "9" {
		t.Error("a not updated in place")
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := newPlanCache(capacity)
		c.put(&cacheEntry{key: "a"})
		if _, ok := c.get("a"); ok {
			t.Fatal("disabled cache returned a hit")
		}
		if c.stats().Size != 0 {
			t.Fatal("disabled cache stored an entry")
		}
		if c.Enabled() {
			t.Errorf("Enabled() = true for capacity %d", capacity)
		}
	}
}

// TestPlanCacheDisabledCountsNothing pins the disabled-state counter
// semantics: a cache-off server must not report its lookup traffic as
// misses, or /metrics shows a misleading 0% hit rate under load.
func TestPlanCacheDisabledCountsNothing(t *testing.T) {
	c := newPlanCache(0)
	for i := 0; i < 10; i++ {
		c.get(fmt.Sprintf("key%d", i))
	}
	if h, m := c.stats().Hits, c.stats().Misses; h != 0 || m != 0 {
		t.Errorf("disabled cache counted hits/misses = %d/%d, want 0/0", h, m)
	}
	if rate := c.stats().HitRate; rate != 0 {
		t.Errorf("disabled cache hit rate = %v, want 0", rate)
	}
	enabled := newPlanCache(4)
	if !enabled.Enabled() {
		t.Fatal("Enabled() = false for capacity 4")
	}
	enabled.get("nope")
	if enabled.stats().Misses != 1 {
		t.Errorf("enabled cache misses = %d, want 1", enabled.stats().Misses)
	}
}

// TestPlanCacheConcurrentHammer drives the cache from 32 goroutines
// mixing gets and puts over a key space larger than the capacity, so
// evictions, promotions and updates all race. Run under -race this is
// the cache's data-race certificate; the invariants below catch
// structural corruption.
func TestPlanCacheConcurrentHammer(t *testing.T) {
	const (
		goroutines = 32
		opsEach    = 2000
		capacity   = 64
		keySpace   = 128
	)
	c := newPlanCache(capacity)
	keys := make([]string, keySpace)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%d", i)
	}

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				k := keys[(g*31+i*7)%keySpace]
				if (g+i)%3 == 0 {
					c.put(&cacheEntry{key: k})
				} else if e, ok := c.get(k); ok {
					if e.key != k {
						t.Errorf("get(%q) returned entry for %q", k, e.key)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	if c.stats().Size > capacity {
		t.Errorf("len = %d exceeds capacity %d", c.stats().Size, capacity)
	}
	gets := uint64(0)
	for g := 0; g < goroutines; g++ {
		for i := 0; i < opsEach; i++ {
			if (g+i)%3 != 0 {
				gets++
			}
		}
	}
	if c.stats().Hits+c.stats().Misses != gets {
		t.Errorf("hits+misses = %d, want %d", c.stats().Hits+c.stats().Misses, gets)
	}
	// Every surviving entry must still be retrievable.
	for _, k := range keys {
		if e, ok := c.get(k); ok && e.key != k {
			t.Errorf("corrupted entry under key %q", k)
		}
	}
}

// keyInput is one request's keyed parts, laid out so that a test can
// change any one field.
type keyInput struct {
	tasks     []wf.Task
	edges     []wf.Edge
	plat      *platform.Platform
	algorithm string
	budget    float64
}

// diamondKeyInput is a four-task diamond with every keyed number
// distinct, on the default platform.
func diamondKeyInput() keyInput {
	task := func(name string, mean, in, out float64) wf.Task {
		return wf.Task{Name: name, Weight: stoch.Dist{Mean: mean, Sigma: mean / 2}, ExternalIn: in, ExternalOut: out}
	}
	return keyInput{
		tasks: []wf.Task{task("a", 1e9, 3e8, 0), task("b", 2e9, 0, 0), task("c", 3e9, 0, 0), task("d", 4e9, 0, 5e7)},
		edges: []wf.Edge{{From: 0, To: 1, Size: 1e8}, {From: 0, To: 2, Size: 2e8}, {From: 1, To: 3, Size: 3e8}, {From: 2, To: 3, Size: 4e8}},
		plat:  platform.Default(), algorithm: "heftbudg", budget: 10,
	}
}

// key builds the workflow under the given label and returns its cache
// key.
func (k keyInput) key(t *testing.T, label string) string {
	t.Helper()
	w := wf.New(label)
	for _, tk := range k.tasks {
		id := w.AddTask(tk.Name, tk.Weight)
		if err := w.SetExternalIO(id, tk.ExternalIn, tk.ExternalOut); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range k.edges {
		w.MustAddEdge(e.From, e.To, e.Size)
	}
	return cacheKey(w, k.plat, k.algorithm, k.budget)
}

// TestCacheKeyDistinguishesParts: the key changes with a one-ulp change
// to any number the planner reads — each task field, each edge field,
// the platform, the budget — and with the algorithm; it does not change
// when the workflow or a task is renamed; and moving the boundary
// between the task and edge lists does not collide.
func TestCacheKeyDistinguishesParts(t *testing.T) {
	ulp := func(v *float64) { *v = math.Nextafter(*v, math.Inf(1)) }
	ref := diamondKeyInput().key(t, "diamond")
	if diamondKeyInput().key(t, "diamond") != ref {
		t.Fatal("cache key not deterministic")
	}
	for name, change := range map[string]func(*keyInput){
		"task mean":         func(k *keyInput) { ulp(&k.tasks[1].Weight.Mean) },
		"task sigma":        func(k *keyInput) { ulp(&k.tasks[2].Weight.Sigma) },
		"task external in":  func(k *keyInput) { ulp(&k.tasks[0].ExternalIn) },
		"task external out": func(k *keyInput) { ulp(&k.tasks[3].ExternalOut) },
		"edge from":         func(k *keyInput) { k.edges[2].From-- },
		"edge to":           func(k *keyInput) { k.edges[0].To++ },
		"edge size":         func(k *keyInput) { ulp(&k.edges[3].Size) },
		"platform":          func(k *keyInput) { ulp(&k.plat.Categories[0].CostPerSec) },
		"algorithm":         func(k *keyInput) { k.algorithm = "heft" },
		"budget":            func(k *keyInput) { ulp(&k.budget) },
	} {
		k := diamondKeyInput()
		change(&k)
		if k.key(t, "diamond") == ref {
			t.Errorf("cache key insensitive to the %s", name)
		}
	}

	renamed := diamondKeyInput()
	for i := range renamed.tasks {
		renamed.tasks[i].Name = fmt.Sprintf("renamed%d", i)
	}
	if renamed.key(t, "another label") != ref {
		t.Error("renaming the workflow and its tasks changed the cache key")
	}

	// n tasks and e edges against n+1 tasks and e-1 edges, and against
	// n+3 tasks and no edges, crafted so that everything after the task
	// count is the same bytes: the three tasks are the diamond's edge
	// count and edge records, read as floats, and the diamond's last
	// edge carries no data, so that its last word matches the crafted
	// workflow's edge count of zero. Only the task count tells them apart.
	shifted := diamondKeyInput()
	shifted.tasks = append(shifted.tasks, wf.Task{Weight: stoch.Dist{Mean: 1}})
	shifted.edges = shifted.edges[:3]
	if shifted.key(t, "diamond") == ref {
		t.Error("cache key collides when a task takes the place of an edge")
	}
	zeroLast := diamondKeyInput()
	zeroLast.edges[3].Size = 0
	words := []float64{math.Float64frombits(uint64(len(zeroLast.edges)))}
	for _, e := range zeroLast.edges[:3] {
		words = append(words, math.Float64frombits(uint64(e.From)), math.Float64frombits(uint64(e.To)), e.Size)
	}
	words = append(words, math.Float64frombits(uint64(zeroLast.edges[3].From)), math.Float64frombits(uint64(zeroLast.edges[3].To)))
	reread := diamondKeyInput()
	reread.edges = nil
	for w := words; len(w) > 0; w = w[4:] {
		reread.tasks = append(reread.tasks, wf.Task{Weight: stoch.Dist{Mean: w[0], Sigma: w[1]}, ExternalIn: w[2], ExternalOut: w[3]})
	}
	if reread.key(t, "diamond") == zeroLast.key(t, "diamond") {
		t.Error("cache key collides when three tasks take the place of four edges")
	}
}
