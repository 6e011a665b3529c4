package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"budgetwf/internal/platform"
	"budgetwf/internal/wf"
)

// planCache is a content-addressed LRU cache of scheduling results,
// addressed at two levels. The entries are keyed by the exact content
// of (workflow, platform, algorithm, budget) — see cacheKey — so two
// requests that differ only in labels or spelling share an entry and
// the second skips the planner (and the deterministic validation
// simulation). Computing that key means parsing the request, so on top
// of it sits an alias index from the SHA-256 of a raw request body to
// the entry that body resolved to: a body that repeats byte for byte,
// the common case when clients sweep budgets or re-plan periodic
// workflows, is answered without being parsed at all.
//
// An alias is only ever a shortcut to an entry the full path created
// and that is still resident: it is recorded after that path answered
// 200, it dies with its entry, and an entry keeps at most
// maxBodyAliases of them (the oldest gives way), so the index is
// bounded by the entry capacity. The cached value is the rendered
// response, immutable by construction, so hits are also free of
// serialization cost.
//
// All methods are safe for concurrent use. A capacity ≤ 0 disables
// caching (every lookup misses, stores and aliases are dropped).
type planCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	items   map[string]*list.Element
	aliases map[bodyDigest]*list.Element

	hits     atomic.Uint64 // all hits, by content key or by body
	bodyHits atomic.Uint64 // the hits that came through an alias
	misses   atomic.Uint64
}

// bodyDigest is the SHA-256 of a raw request body. It has to stay a
// collision-resistant hash: a collision would hand one client another
// client's plan.
type bodyDigest = [sha256.Size]byte

// maxBodyAliases bounds the spellings remembered per entry. One client
// re-sending its request needs one; a few more cover several clients
// serializing the same workflow differently.
const maxBodyAliases = 4

// cacheEntry is one cached scheduling outcome.
type cacheEntry struct {
	key       string
	algorithm string // as the request spelled it, for the hit's counter and span
	// head is the rendered cached:true response up to and including the
	// opening quote of the requestId value; see renderHit and writeHit.
	head []byte
	// bodies are the digests aliased to this entry, oldest first.
	// Guarded by planCache.mu.
	bodies []bodyDigest
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:     capacity,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		aliases: make(map[bodyDigest]*list.Element),
	}
}

// get returns the entry for key, promoting it to most-recently-used.
// A disabled cache reports neither hits nor misses: counting every
// lookup as a miss would make /metrics show a 0% hit rate with nonzero
// lookup traffic on a server that has no cache at all, which reads as
// a cache problem instead of a configuration fact (the enabled gauge
// carries that fact instead).
func (c *planCache) get(key string) (*cacheEntry, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.items[key]
	var e *cacheEntry
	if ok {
		c.ll.MoveToFront(el)
		// Read Value under the lock: put updates it in place on a
		// repeated key.
		e = el.Value.(*cacheEntry)
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return e, true
}

// getBody returns the entry a byte-identical earlier body resolved to,
// promoting it to most-recently-used. An unknown digest is not a miss:
// the request goes on to the content key, and get counts it there.
func (c *planCache) getBody(d bodyDigest) (*cacheEntry, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.aliases[d]
	var e *cacheEntry
	if ok {
		c.ll.MoveToFront(el)
		e = el.Value.(*cacheEntry)
	}
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	c.hits.Add(1)
	c.bodyHits.Add(1)
	return e, true
}

// aliasBody records d as a spelling of the entry under key, if that
// entry is still resident. At the cap the oldest spelling is dropped:
// the newest is the one most likely to come again.
func (c *planCache) aliasBody(key string, d bodyDigest) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return
	}
	if _, dup := c.aliases[d]; dup {
		return
	}
	e := el.Value.(*cacheEntry)
	if len(e.bodies) == maxBodyAliases {
		delete(c.aliases, e.bodies[0])
		e.bodies = append(e.bodies[:0], e.bodies[1:]...)
	}
	e.bodies = append(e.bodies, d)
	c.aliases[d] = el
}

// put stores the entry, evicting the least-recently-used one — and its
// aliases — when the cache is full. Storing an existing key (two
// concurrent misses on it) refreshes its recency and hands the
// aliases, which point at the list element, over to the new entry.
func (c *planCache) put(e *cacheEntry) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[e.key]; ok {
		e.bodies = el.Value.(*cacheEntry).bodies
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.items[e.key] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		evicted := oldest.Value.(*cacheEntry)
		delete(c.items, evicted.key)
		for _, d := range evicted.bodies {
			delete(c.aliases, d)
		}
	}
}

// Enabled reports whether caching is active (capacity > 0). When
// false, lookups bypass the hit/miss counters entirely.
func (c *planCache) Enabled() bool { return c.cap > 0 }

// cacheStats is the "cache" entry of the JSON metrics document and the
// cache's one read API. Hits counts every hit; BodyHits is the part of
// them that came through a body alias and so skipped the parse; HitRate
// is hits / lookups, 0 before the first lookup; Size is resident
// entries; Aliases is body digests aliased to them, at most
// maxBodyAliases × Size.
type cacheStats struct {
	Enabled  bool    `json:"enabled"`
	Hits     uint64  `json:"hits"`
	BodyHits uint64  `json:"bodyHits"`
	Misses   uint64  `json:"misses"`
	HitRate  float64 `json:"hitRate"`
	Size     int     `json:"size"`
	Aliases  int     `json:"aliases"`
}

func (c *planCache) stats() cacheStats {
	st := cacheStats{Enabled: c.Enabled(), Hits: c.hits.Load(), BodyHits: c.bodyHits.Load(), Misses: c.misses.Load()}
	c.mu.Lock()
	st.Size, st.Aliases = c.ll.Len(), len(c.aliases)
	c.mu.Unlock()
	if lookups := st.Hits + st.Misses; lookups > 0 {
		st.HitRate = float64(st.Hits) / float64(lookups)
	}
	return st
}

// cacheKey derives the content address of one scheduling request: a
// SHA-256 over the budget's bits, the platform's digest, the algorithm
// as spelled (length first) and the workflow's content in the request's
// own order (wf.Workflow.AppendContent). A plan is positional, so the
// key is too: a hit is always in the caller's order, and renaming the
// workflow or its tasks still hits. The short parts go first, in a
// stack buffer, so the workflow's content is never copied.
func cacheKey(w *wf.Workflow, plat *platform.Platform, algorithm string, budget float64) string {
	b := make([]byte, 0, 128)
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(budget))
	b = append(b, plat.CanonicalHash()...)
	b = binary.BigEndian.AppendUint64(b, uint64(len(algorithm)))
	b = append(b, algorithm...)
	sum := sha256.Sum256(w.AppendContent(b))
	return string(sum[:])
}
