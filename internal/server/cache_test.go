package server

import (
	"fmt"
	"sync"
	"testing"
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
		keys[i] = cacheKey(fmt.Sprintf("wf%d", i), "plat", "heftbudg", float64(i))
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

func TestCacheKeyDistinguishesParts(t *testing.T) {
	base := cacheKey("wf", "plat", "heftbudg", 10)
	for name, other := range map[string]string{
		"workflow":  cacheKey("wf2", "plat", "heftbudg", 10),
		"platform":  cacheKey("wf", "plat2", "heftbudg", 10),
		"algorithm": cacheKey("wf", "plat", "heft", 10),
		"budget":    cacheKey("wf", "plat", "heftbudg", 10.000001),
	} {
		if other == base {
			t.Errorf("cache key insensitive to %s", name)
		}
	}
	if cacheKey("wf", "plat", "heftbudg", 10) != base {
		t.Error("cache key not deterministic")
	}
	// The NUL separators prevent boundary ambiguity.
	if cacheKey("ab", "c", "x", 1) == cacheKey("a", "bc", "x", 1) {
		t.Error("cache key has a field-boundary collision")
	}
}
