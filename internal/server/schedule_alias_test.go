package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"

	"budgetwf/internal/obs"
	"budgetwf/internal/platform"
	"budgetwf/internal/sched"
	"budgetwf/internal/stoch"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// The tests of /v1/schedule's two-level cache addressing: what the
// body-alias shortcut may and may not do. The shortcut is a speed
// device; every property here holds with it or without it.

var requestIDField = regexp.MustCompile(`"requestId":"[^"]*"`)

// sansRequestID blanks the one field in which two hits on one entry
// may differ.
func sansRequestID(resp []byte) []byte {
	return requestIDField.ReplaceAll(resp, []byte(`"requestId":""`))
}

// wireWorkflow is the workflow document of a /v1/schedule body, as
// the tests that re-spell one take it apart.
type wireWorkflow struct {
	Name  string     `json:"name"`
	Tasks []wireTask `json:"tasks"`
	Edges []wireEdge `json:"edges"`
}

type wireTask struct {
	Name        string  `json:"name"`
	Mean        float64 `json:"mean"`
	Sigma       float64 `json:"sigma"`
	ExternalIn  float64 `json:"externalIn,omitempty"`
	ExternalOut float64 `json:"externalOut,omitempty"`
}

type wireEdge struct {
	From int     `json:"from"`
	To   int     `json:"to"`
	Size float64 `json:"size"`
}

// rewriteWorkflow applies edit to the workflow of a /v1/schedule body
// and re-serialises the body with the workflow indented by indent.
func rewriteWorkflow(t *testing.T, body []byte, indent string, edit func(*wireWorkflow)) []byte {
	t.Helper()
	var env map[string]json.RawMessage
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	var w wireWorkflow
	if err := json.Unmarshal(env["workflow"], &w); err != nil {
		t.Fatal(err)
	}
	edit(&w)
	raw, err := json.MarshalIndent(w, "", indent)
	if err != nil {
		t.Fatal(err)
	}
	env["workflow"] = raw
	out, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// respell re-serialises a /v1/schedule body so that its bytes differ
// from every other variant's while the planner cannot tell the
// requests apart: every label is renamed and the workflow is indented
// differently. The tasks keep their order, which a plan follows.
func respell(t *testing.T, body []byte, variant int) []byte {
	t.Helper()
	return rewriteWorkflow(t, body, strings.Repeat(" ", 1+variant%4), func(w *wireWorkflow) {
		for i := range w.Tasks {
			w.Tasks[i].Name = fmt.Sprintf("spelling%d-task%d", variant, i)
		}
		w.Name = fmt.Sprintf("spelling%d", variant)
	})
}

// permuteTasks shuffles the task array of a /v1/schedule body by a
// seeded permutation and remaps the edges, so the body describes the
// same DAG with every task at another index.
func permuteTasks(t *testing.T, body []byte, seed int64) []byte {
	t.Helper()
	return rewriteWorkflow(t, body, "", func(w *wireWorkflow) {
		perm := rand.New(rand.NewSource(seed)).Perm(len(w.Tasks))
		shuffled := make([]wireTask, len(w.Tasks))
		for i, tk := range w.Tasks {
			shuffled[perm[i]] = tk
		}
		w.Tasks = shuffled
		for i := range w.Edges {
			w.Edges[i].From, w.Edges[i].To = perm[w.Edges[i].From], perm[w.Edges[i].To]
		}
	})
}

// workflowOf returns the workflow document of a /v1/schedule body.
func workflowOf(t *testing.T, body []byte) json.RawMessage {
	t.Helper()
	var env struct {
		Workflow json.RawMessage `json:"workflow"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	return env.Workflow
}

// wlTwins is the named fixture of two workflows that one-dimensional
// Weisfeiler–Leman refinement cannot tell apart: six sources and six
// sinks, every source feeding two sinks, wired as one 12-cycle in the
// first and as two 6-cycles in the second. All sources, all sinks and
// all edges carry the same numbers, so every task of either workflow
// sees the same neighbourhood at every refinement round.
func wlTwins(t testing.TB) (cycle12, twoCycles6 json.RawMessage) {
	t.Helper()
	build := func(next func(i int) int) json.RawMessage {
		w := wf.New("wl-twin")
		for i := 0; i < 6; i++ {
			w.AddTask(fmt.Sprintf("source%d", i), stoch.Dist{Mean: 4e9, Sigma: 2e9})
		}
		for i := 0; i < 6; i++ {
			sink := w.AddTask(fmt.Sprintf("sink%d", i), stoch.Dist{Mean: 9e9, Sigma: 4.5e9})
			if err := w.SetExternalIO(wf.TaskID(i), 3e8, 0); err != nil {
				t.Fatal(err)
			}
			if err := w.SetExternalIO(sink, 0, 1e8); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 6; i++ {
			w.MustAddEdge(wf.TaskID(i), wf.TaskID(6+i), 5e8)
			w.MustAddEdge(wf.TaskID(i), wf.TaskID(6+next(i)), 5e8)
		}
		var buf bytes.Buffer
		if err := w.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// Source i feeds sink i and sink next(i); sink j is fed by sources j
	// and next⁻¹(j). One 6-cycle of next gives one 12-cycle of tasks,
	// two 3-cycles give two 6-cycles.
	cycle12 = build(func(i int) int { return (i + 1) % 6 })
	twoCycles6 = build(func(i int) int { return i/3*3 + (i+1)%3 })
	return cycle12, twoCycles6
}

// referencePlan plans the request's workflow in-process and returns
// the plan as a response embeds it.
func referencePlan(t *testing.T, wfJSON json.RawMessage, alg sched.Name, budget float64) []byte {
	t.Helper()
	w, err := wf.ReadJSON(bytes.NewReader(wfJSON))
	if err != nil {
		t.Fatal(err)
	}
	p, err := sched.PlanContext(context.Background(), alg, w, platform.Default(), budget)
	if err != nil {
		t.Fatal(err)
	}
	var pretty, compact bytes.Buffer
	if err := p.WriteJSON(&pretty); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&compact, pretty.Bytes()); err != nil {
		t.Fatal(err)
	}
	return append([]byte(`"schedule":`), compact.Bytes()...)
}

// postOK posts a schedule request that must succeed and reports its
// cached flag.
func postOK(t *testing.T, ts *httptest.Server, path string, body []byte) (data []byte, cached bool) {
	t.Helper()
	code, data, _ := post(t, ts, path, body)
	if code != http.StatusOK {
		t.Fatalf("POST %s = %d: %.300s", path, code, data)
	}
	var resp struct {
		Cached bool `json:"cached"`
	}
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatalf("response is not JSON: %v", err)
	}
	return data, resp.Cached
}

// checkAliasBound asserts the invariant that keeps the alias index
// bounded by the entry capacity.
func checkAliasBound(t *testing.T, c *planCache) {
	t.Helper()
	if a, n := c.stats().Aliases, c.stats().Size; a > maxBodyAliases*n {
		t.Fatalf("%d aliases for %d entries, bound is %d per entry", a, n, maxBodyAliases)
	}
}

// TestAliasHitEqualsCanonicalHit: for every registered base algorithm
// on the three paper families, a byte-identical repeat (answered from
// the alias, unparsed) and a repeat with every label renamed and the
// workflow re-indented (answered from the content key after the full
// parse) get the same bytes but for the request id, and those bytes
// carry the plan the planner returns.
func TestAliasHitEqualsCanonicalHit(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const budget = 40.0
	for _, typ := range wfgen.AllPaperTypes() {
		wfJSON := familyWorkflowJSON(t, typ, 30, 11)
		for _, alg := range sched.AllExtended() {
			name := fmt.Sprintf("%s/%s", typ, alg.Name)
			body := scheduleBody(t, wfJSON, string(alg.Name), budget)
			want := referencePlan(t, wfJSON, alg.Name, budget)

			bodyHits := s.metrics.reg.Value("budgetwfd_cache_body_hits_total", "")
			first, cached := postOK(t, ts, "/v1/schedule", body)
			if cached {
				t.Fatalf("%s: first request reported cached", name)
			}
			aliasHit, cached := postOK(t, ts, "/v1/schedule", body)
			if !cached || s.metrics.reg.Value("budgetwfd_cache_body_hits_total", "") != bodyHits+1 {
				t.Fatalf("%s: byte-identical repeat did not take the alias", name)
			}
			keyHit, cached := postOK(t, ts, "/v1/schedule", respell(t, body, 1))
			if !cached || s.metrics.reg.Value("budgetwfd_cache_body_hits_total", "") != bodyHits+1 {
				t.Fatalf("%s: re-spelled repeat: cached=%v, body hits moved=%v", name,
					cached, s.metrics.reg.Value("budgetwfd_cache_body_hits_total", "") != bodyHits+1)
			}
			if !bytes.Equal(sansRequestID(aliasHit), sansRequestID(keyHit)) {
				t.Errorf("%s: alias hit and content-key hit differ beyond the request id:\n%.200s\n%.200s",
					name, aliasHit, keyHit)
			}
			if bytes.Equal(aliasHit, keyHit) {
				t.Errorf("%s: two hits share a request id", name)
			}
			for kind, resp := range map[string][]byte{"miss": first, "alias hit": aliasHit, "content-key hit": keyHit} {
				if !bytes.Contains(resp, want) {
					t.Errorf("%s: %s does not carry the reference plan", name, kind)
				}
				var parsed scheduleResponse
				if err := json.Unmarshal(resp, &parsed); err != nil {
					t.Fatalf("%s: %s is not a schedule response: %v", name, kind, err)
				}
				if parsed.Algorithm != string(alg.Name) || parsed.Budget != budget || parsed.RequestID == "" {
					t.Errorf("%s: %s echoes algorithm=%q budget=%v requestId=%q", name, kind,
						parsed.Algorithm, parsed.Budget, parsed.RequestID)
				}
			}
		}
	}
	checkAliasBound(t, s.cache)
}

// TestPermutedTasksPlanInTheirOwnOrder: a plan is positional — it
// places task t at index t of the request's task array — so a request
// whose task array permutes an earlier one's is another request. It
// misses, and its answer is the plan of its own order, not the earlier
// requester's plan under the new order's indices.
func TestPermutedTasksPlanInTheirOwnOrder(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const budget = 40.0
	for _, typ := range wfgen.AllPaperTypes() {
		wfJSON := familyWorkflowJSON(t, typ, 30, 11)
		body := scheduleBody(t, wfJSON, string(sched.NameHeftBudg), budget)
		permuted := permuteTasks(t, body, 3)
		want := referencePlan(t, workflowOf(t, permuted), sched.NameHeftBudg, budget)
		if bytes.Contains(referencePlan(t, wfJSON, sched.NameHeftBudg, budget), want) {
			t.Fatalf("%s: the permutation left the plan unchanged; it cannot tell the orders apart", typ)
		}
		postOK(t, ts, "/v1/schedule", body)
		resp, cached := postOK(t, ts, "/v1/schedule", permuted)
		if cached {
			t.Errorf("%s: a permuted task array was answered from the cache", typ)
		}
		if !bytes.Contains(resp, want) {
			t.Errorf("%s: a permuted task array did not get the plan of its own order", typ)
		}
	}
}

// TestWLTwinsPlanApart: the two workflows of wlTwins are different
// DAGs, so the second request of the pair misses and carries its own
// plan, whatever a graph hash makes of them.
func TestWLTwinsPlanApart(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// A budget of six small VMs, where the sinks share them and so
	// follow the wiring.
	const budget = 0.1
	cycle12, twoCycles6 := wlTwins(t)
	want := referencePlan(t, twoCycles6, sched.NameHeftBudg, budget)
	if bytes.Equal(referencePlan(t, cycle12, sched.NameHeftBudg, budget), want) {
		t.Fatal("the twins plan alike at this budget; the test cannot tell their plans apart")
	}
	postOK(t, ts, "/v1/schedule", scheduleBody(t, cycle12, string(sched.NameHeftBudg), budget))
	resp, cached := postOK(t, ts, "/v1/schedule", scheduleBody(t, twoCycles6, string(sched.NameHeftBudg), budget))
	if cached {
		t.Error("the two-6-cycles twin was answered from the 12-cycle's entry")
	}
	if !bytes.Contains(resp, want) {
		t.Error("the two-6-cycles twin did not get its own plan")
	}
}

// TestRespelledBodyBecomesAlias: a re-serialised body reaches the
// entry through the content key, is then an alias of its own, and
// the number of spellings remembered per entry stays at the cap, the
// oldest giving way.
func TestRespelledBodyBecomesAlias(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	m := s.metrics.reg

	original := scheduleBody(t, workflowJSON(t, 20, 7), "heftbudg", 50)
	postOK(t, ts, "/v1/schedule", original)
	if s.cache.stats().Size != 1 || s.cache.stats().Aliases != 1 {
		t.Fatalf("after one plan: %d entries, %d aliases, want 1 and 1", s.cache.stats().Size, s.cache.stats().Aliases)
	}

	spelling := respell(t, original, 1)
	if bytes.Equal(spelling, original) {
		t.Fatal("respell returned the same bytes")
	}
	if _, cached := postOK(t, ts, "/v1/schedule", spelling); !cached || m.Value("budgetwfd_cache_body_hits_total", "") != 0 {
		t.Fatalf("new spelling: cached=%v bodyHits=%v, want a content-key hit", cached, m.Value("budgetwfd_cache_body_hits_total", ""))
	}
	if _, cached := postOK(t, ts, "/v1/schedule", spelling); !cached || m.Value("budgetwfd_cache_body_hits_total", "") != 1 {
		t.Fatalf("repeated spelling: cached=%v bodyHits=%v, want an alias hit", cached, m.Value("budgetwfd_cache_body_hits_total", ""))
	}
	if s.cache.stats().Size != 1 || s.cache.stats().Aliases != 2 {
		t.Fatalf("two spellings: %d entries, %d aliases, want 1 and 2", s.cache.stats().Size, s.cache.stats().Aliases)
	}

	// Fill to one spelling past the cap: every new one still hits, by
	// the content key, and the index does not grow past the cap.
	for v := 2; v <= maxBodyAliases; v++ {
		before := m.Value("budgetwfd_cache_body_hits_total", "")
		if _, cached := postOK(t, ts, "/v1/schedule", respell(t, original, v)); !cached || m.Value("budgetwfd_cache_body_hits_total", "") != before {
			t.Fatalf("spelling %d: cached=%v, want a content-key hit", v, cached)
		}
		checkAliasBound(t, s.cache)
	}
	if s.cache.stats().Size != 1 || s.cache.stats().Aliases != maxBodyAliases {
		t.Fatalf("past the cap: %d entries, %d aliases, want 1 and %d", s.cache.stats().Size, s.cache.stats().Aliases, maxBodyAliases)
	}
	// The newest spelling is remembered, the oldest was dropped — and is
	// still a hit, the slower way.
	before := m.Value("budgetwfd_cache_body_hits_total", "")
	if _, cached := postOK(t, ts, "/v1/schedule", respell(t, original, maxBodyAliases)); !cached || m.Value("budgetwfd_cache_body_hits_total", "") != before+1 {
		t.Errorf("newest spelling is not an alias")
	}
	if _, cached := postOK(t, ts, "/v1/schedule", original); !cached || m.Value("budgetwfd_cache_body_hits_total", "") != before+1 {
		t.Errorf("oldest spelling: cached=%v, body hits moved=%v; want a content-key hit",
			cached, m.Value("budgetwfd_cache_body_hits_total", "") != before+1)
	}
	if misses := m.Value("budgetwfd_cache_misses_total", ""); misses != 1 {
		t.Errorf("misses = %v, want only the first plan", misses)
	}
}

// TestEvictionRemovesAliases churns ten times the capacity through a
// small cache: an evicted entry takes its aliases along, and a body
// whose entry is gone plans again.
func TestEvictionRemovesAliases(t *testing.T) {
	const capacity = 3
	s := newTestServer(t, Config{Workers: 1, CacheSize: capacity})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wfJSON := workflowJSON(t, 15, 3)
	bodyAt := func(i int) []byte { return scheduleBody(t, wfJSON, "heft", float64(10+i)) }
	for i := 0; i < 10*capacity; i++ {
		if _, cached := postOK(t, ts, "/v1/schedule", bodyAt(i)); cached {
			t.Fatalf("body %d: cached on first sight", i)
		}
		// A second spelling for every other entry, so entries leave
		// with one alias or with two.
		if i%2 == 0 {
			postOK(t, ts, "/v1/schedule", respell(t, bodyAt(i), i))
		}
		checkAliasBound(t, s.cache)
		if s.cache.stats().Size > capacity {
			t.Fatalf("%d entries, capacity %d", s.cache.stats().Size, capacity)
		}
	}
	// Resident: the last three bodies, of which the even-numbered carry
	// a second spelling.
	wantAliases := 0
	for i := 10*capacity - capacity; i < 10*capacity; i++ {
		wantAliases += 1 + (i+1)%2
	}
	if got := s.cache.stats().Aliases; got != wantAliases {
		t.Errorf("%d aliases left for the %d resident entries, want %d", got, capacity, wantAliases)
	}
	if _, cached := postOK(t, ts, "/v1/schedule", bodyAt(0)); cached {
		t.Error("a body whose entry was evicted was answered from the cache")
	}
}

// TestPlanCacheAliasLifecycle pins the alias index at the unit level:
// replacement of an entry keeps its aliases and leaks none, eviction
// deletes them, duplicates and orphans are ignored.
func TestPlanCacheAliasLifecycle(t *testing.T) {
	digest := func(s string) bodyDigest { return sha256.Sum256([]byte(s)) }
	c := newPlanCache(2)
	c.aliasBody("absent", digest("orphan"))
	if c.stats().Aliases != 0 {
		t.Fatal("alias recorded for a key that is not resident")
	}

	c.put(&cacheEntry{key: "a", algorithm: "first"})
	c.aliasBody("a", digest("a1"))
	c.aliasBody("a", digest("a1")) // the second of two concurrent identical cold bodies
	c.aliasBody("a", digest("a2"))
	if c.stats().Aliases != 2 {
		t.Fatalf("aliases = %d, want 2", c.stats().Aliases)
	}
	// Two concurrent misses on one key: the second put replaces the
	// entry. Its aliases must keep working and answer from the new one.
	c.put(&cacheEntry{key: "a", algorithm: "second"})
	for _, d := range []string{"a1", "a2"} {
		if e, ok := c.getBody(digest(d)); !ok || e.algorithm != "second" {
			t.Fatalf("alias %s after replacement: ok=%v entry=%+v", d, ok, e)
		}
	}
	if c.stats().Aliases != 2 || c.stats().Size != 1 {
		t.Fatalf("after replacement: %d aliases, %d entries, want 2 and 1", c.stats().Aliases, c.stats().Size)
	}
	if c.stats().Hits != 2 || c.stats().BodyHits != 2 || c.stats().Misses != 0 {
		t.Errorf("hits/bodyHits/misses = %d/%d/%d, want 2/2/0", c.stats().Hits, c.stats().BodyHits, c.stats().Misses)
	}
	if _, ok := c.getBody(digest("never seen")); ok || c.stats().Misses != 0 {
		t.Error("an unknown digest must be neither a hit nor a miss")
	}

	// b and c push a out; its aliases go with it.
	c.put(&cacheEntry{key: "b"})
	c.aliasBody("b", digest("b1"))
	c.put(&cacheEntry{key: "c"})
	if _, ok := c.getBody(digest("a1")); ok {
		t.Error("alias of an evicted entry still resolves")
	}
	if c.stats().Aliases != 1 {
		t.Errorf("aliases = %d after eviction, want only b's", c.stats().Aliases)
	}

	// An alias hit refreshes recency like any other hit: b, just used,
	// survives the next insertion; c does not.
	if _, ok := c.getBody(digest("b1")); !ok {
		t.Fatal("lost b's alias")
	}
	c.put(&cacheEntry{key: "d"})
	if _, ok := c.get("b"); !ok {
		t.Error("an alias hit did not promote its entry")
	}
	if _, ok := c.get("c"); ok {
		t.Error("c should have been evicted as LRU")
	}

	off := newPlanCache(0)
	off.put(&cacheEntry{key: "a"})
	off.aliasBody("a", digest("a1"))
	if _, ok := off.getBody(digest("a1")); ok || off.stats().Aliases != 0 || off.stats().Hits != 0 || off.stats().Misses != 0 {
		t.Error("a disabled cache aliased or counted")
	}
}

// TestPlanCacheAliasHammer races puts, alias registrations and both
// kinds of lookup over a key space larger than the capacity; run under
// -race it is the alias index's data-race certificate, and the bound
// must hold at the end.
func TestPlanCacheAliasHammer(t *testing.T) {
	const (
		goroutines = 16
		opsEach    = 2000
		capacity   = 32
		keySpace   = 96
	)
	c := newPlanCache(capacity)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				k := (g*31 + i*7) % keySpace
				key := fmt.Sprintf("key%d", k)
				d := sha256.Sum256([]byte(fmt.Sprintf("body%d-%d", k, i%(2*maxBodyAliases))))
				switch (g + i) % 4 {
				case 0:
					c.put(&cacheEntry{key: key})
				case 1:
					c.aliasBody(key, d)
				case 2:
					if e, ok := c.getBody(d); ok && e.key != key {
						t.Errorf("alias of %s resolved to %s", key, e.key)
						return
					}
				default:
					c.get(key)
				}
			}
		}(g)
	}
	wg.Wait()
	checkAliasBound(t, c)
	if c.stats().Size > capacity {
		t.Errorf("len = %d exceeds capacity %d", c.stats().Size, capacity)
	}
}

// TestConcurrentIdenticalColdBodies: several clients send one cold
// body at once. All of them plan or hit, the entry ends up with the
// one alias, and nothing leaks.
func TestConcurrentIdenticalColdBodies(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := scheduleBody(t, workflowJSON(t, 40, 9), "heftbudg", 50)
	const clients = 8
	responses := make([][]byte, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("client %d: %v", c, err)
				return
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d, err %v", c, resp.StatusCode, err)
				return
			}
			responses[c] = data
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var plans [][]byte
	for _, data := range responses {
		var resp scheduleResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			t.Fatal(err)
		}
		plans = append(plans, resp.Schedule)
	}
	for c := 1; c < clients; c++ {
		if !bytes.Equal(plans[c], plans[0]) {
			t.Errorf("client %d got a different plan", c)
		}
	}
	if s.cache.stats().Size != 1 || s.cache.stats().Aliases != 1 {
		t.Errorf("%d entries, %d aliases, want 1 and 1", s.cache.stats().Size, s.cache.stats().Aliases)
	}
	m := s.metrics.reg
	if m.Value("budgetwfd_cache_hits_total", "")+m.Value("budgetwfd_cache_misses_total", "") != clients {
		t.Errorf("hits %v + misses %v != %v requests", m.Value("budgetwfd_cache_hits_total", ""), m.Value("budgetwfd_cache_misses_total", ""), clients)
	}
	if _, cached := postOK(t, ts, "/v1/schedule", body); !cached || m.Value("budgetwfd_cache_body_hits_total", "") == 0 {
		t.Error("the body is not an alias after the stampede")
	}
}

// TestRejectedBodiesAreNeverAliased: the shortcut answers only from an
// entry the full path created, so a malformed or semantically invalid
// body is validated and refused every time it comes.
func TestRejectedBodiesAreNeverAliased(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	wfJSON := workflowJSON(t, 15, 4)
	cyclic := json.RawMessage(`{"name":"c","tasks":[{"name":"a","mean":1},{"name":"b","mean":1}],
		"edges":[{"from":0,"to":1,"size":1},{"from":1,"to":0,"size":1}]}`)
	cases := []struct {
		name string
		body []byte
		want int
	}{
		{"truncated JSON", []byte(`{"workflow": {"name": "x"`), http.StatusBadRequest},
		{"unknown field", []byte(`{"workflow": {}, "algorithm": "heft", "bogus": 1}`), http.StatusBadRequest},
		{"trailing data", append(scheduleBody(t, wfJSON, "heft", 1), " {}"...), http.StatusBadRequest},
		{"trailing }", append(scheduleBody(t, wfJSON, "heft", 1), '}'), http.StatusBadRequest},
		{"trailing ]", append(scheduleBody(t, wfJSON, "heft", 1), "\n]"...), http.StatusBadRequest},
		{"negative budget", scheduleBody(t, wfJSON, "heftbudg", -1), http.StatusBadRequest},
		{"unknown algorithm", scheduleBody(t, wfJSON, "no-such-planner", 10), http.StatusUnprocessableEntity},
		{"cyclic workflow", scheduleBody(t, cyclic, "heft", 10), http.StatusUnprocessableEntity},
		{"missing workflow", []byte(`{"algorithm": "heft", "budget": 1}`), http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		var messages [2]string
		for round := range messages {
			code, data, _ := post(t, ts, "/v1/schedule", tc.body)
			if code != tc.want {
				t.Errorf("%s, round %d: status %d, want %d (%s)", tc.name, round+1, code, tc.want, data)
			}
			var e apiError
			if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
				t.Errorf("%s, round %d: no error body: %s", tc.name, round+1, data)
			}
			messages[round] = e.Error
		}
		if messages[0] != messages[1] {
			t.Errorf("%s: refused differently the second time: %q vs %q", tc.name, messages[0], messages[1])
		}
	}
	if s.cache.stats().Aliases != 0 || s.cache.stats().Size != 0 {
		t.Errorf("rejected bodies left %d aliases and %d entries", s.cache.stats().Aliases, s.cache.stats().Size)
	}
	if h := s.metrics.reg.Value("budgetwfd_cache_hits_total", ""); h != 0 {
		t.Errorf("rejected bodies counted %v hits", h)
	}
}

// TestTraceRequestSkipsAlias: ?trace=1 wants the spans of the full
// path, so it goes by the content key even when its body is aliased,
// and it still gets its trace.
func TestTraceRequestSkipsAlias(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := scheduleBody(t, workflowJSON(t, 15, 6), "heftbudg", 50)
	postOK(t, ts, "/v1/schedule", body)
	plain, _ := postOK(t, ts, "/v1/schedule", body)
	if got := s.metrics.reg.Value("budgetwfd_cache_body_hits_total", ""); got != 1 {
		t.Fatalf("body hits = %v, want 1 before the traced request", got)
	}

	data, cached := postOK(t, ts, "/v1/schedule?trace=1", body)
	if !cached {
		t.Fatal("traced repeat was not a cache hit")
	}
	if got := s.metrics.reg.Value("budgetwfd_cache_body_hits_total", ""); got != 1 {
		t.Errorf("traced request took the alias (body hits = %v)", got)
	}
	var resp scheduleResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil || resp.Trace.Root == nil || resp.Trace.ID != resp.RequestID {
		t.Fatalf("traced hit carries no trace of its own: %.300s", data)
	}
	if fast, ok := cacheHitFast(resp.Trace.Root); !ok || fast {
		t.Errorf("traced hit: cache-hit event present=%v fast=%v, want present and not fast", ok, fast)
	}
	// Without its trace field the traced hit is the plain hit.
	resp.Trace = nil
	stripped, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sansRequestID(stripped), bytes.TrimSpace(sansRequestID(plain))) {
		t.Errorf("traced hit differs from the plain hit beyond requestId and trace:\n%.200s\n%.200s", stripped, plain)
	}
}

// cacheHitFast finds the root span's cache-hit event and returns its
// fast attribute.
func cacheHitFast(root *obs.SpanJSON) (fast, ok bool) {
	for _, e := range root.Events {
		if e.Name == "cache-hit" {
			fast, _ = e.Attrs["fast"].(bool)
			return fast, true
		}
	}
	return false, false
}

// TestMarketRequestTakesAlias: the alias is over the whole body, so a
// request carrying a market spec repeats through it like any other and
// gets the bytes its content-key hit gets.
func TestMarketRequestTakesAlias(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, err := json.Marshal(map[string]any{
		"workflow":  workflowJSON(t, 20, 3),
		"market":    spotMarketJSON(6),
		"algorithm": "heftbudg-spot",
		"budget":    0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	first, cached := postOK(t, ts, "/v1/schedule", body)
	if cached {
		t.Fatal("first market request reported cached")
	}
	aliasHit, cached := postOK(t, ts, "/v1/schedule", body)
	if !cached || s.metrics.reg.Value("budgetwfd_cache_body_hits_total", "") != 1 {
		t.Fatalf("market repeat: cached=%v bodyHits=%v", cached, s.metrics.reg.Value("budgetwfd_cache_body_hits_total", ""))
	}
	keyHit, cached := postOK(t, ts, "/v1/schedule", respell(t, body, 5))
	if !cached || s.metrics.reg.Value("budgetwfd_cache_body_hits_total", "") != 1 {
		t.Fatalf("re-spelled market repeat: cached=%v bodyHits=%v", cached, s.metrics.reg.Value("budgetwfd_cache_body_hits_total", ""))
	}
	if !bytes.Equal(sansRequestID(aliasHit), sansRequestID(keyHit)) {
		t.Error("market alias hit and content-key hit differ beyond the request id")
	}
	var a, b scheduleResponse
	if json.Unmarshal(first, &a) != nil || json.Unmarshal(aliasHit, &b) != nil ||
		!bytes.Equal(a.Schedule, b.Schedule) || a.EstCost != b.EstCost || a.NumVMs != b.NumVMs {
		t.Error("market alias hit carries a different plan than the miss")
	}
	// Another market is another platform: no alias, no content-key hit.
	other, err := json.Marshal(map[string]any{
		"workflow":  workflowJSON(t, 20, 3),
		"market":    spotMarketJSON(2),
		"algorithm": "heftbudg-spot",
		"budget":    0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, cached := postOK(t, ts, "/v1/schedule", other); cached {
		t.Error("a different market spec was answered from the cache")
	}
}

// TestAliasHitKeepsMiddleware: the shortcut skips the parse, not the
// middleware. An alias hit still has its request id header, its root
// span with the cache-hit event and the algorithm, its latency sample,
// status and per-algorithm counts, and its request log line.
func TestAliasHitKeepsMiddleware(t *testing.T) {
	var logs logCapture
	s := newTestServer(t, Config{Workers: 1, Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	m := s.metrics.reg

	body := scheduleBody(t, workflowJSON(t, 15, 8), "heftbudg", 50)
	postOK(t, ts, "/v1/schedule", body)

	code, data, hdr := post(t, ts, "/v1/schedule", body)
	if code != http.StatusOK {
		t.Fatalf("alias hit = %d", code)
	}
	if m.Value("budgetwfd_cache_hits_total", "") != 1 || m.Value("budgetwfd_cache_body_hits_total", "") != 1 {
		t.Fatalf("hits=%v bodyHits=%v, want 1 and 1", m.Value("budgetwfd_cache_hits_total", ""), m.Value("budgetwfd_cache_body_hits_total", ""))
	}
	var resp scheduleResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	id := hdr.Get("X-Request-Id")
	if id == "" || id != resp.RequestID {
		t.Errorf("X-Request-Id %q vs body requestId %q", id, resp.RequestID)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	if !bytes.HasSuffix(data, []byte("}\n")) {
		t.Errorf("alias hit does not end like an encoded response: %q", data[len(data)-10:])
	}

	if got := m.Value("budgetwfd_requests_total", "schedule"); got != 2 {
		t.Errorf("schedule request count = %v, want 2", got)
	}
	if got := m.Value("budgetwfd_responses_total", "200"); got != 2 {
		t.Errorf("200 count = %v, want 2", got)
	}
	if got := m.Value("budgetwfd_request_duration_seconds", "schedule"); got != 2 {
		t.Errorf("schedule latency samples = %v, want 2", got)
	}
	var mv struct {
		Algorithms map[string]int `json:"algorithms"`
		Cache      struct {
			Hits     uint64 `json:"hits"`
			BodyHits uint64 `json:"bodyHits"`
			Aliases  int    `json:"aliases"`
		} `json:"cache"`
	}
	_, metrics := get(t, ts, "/metrics")
	if err := json.Unmarshal(metrics, &mv); err != nil {
		t.Fatal(err)
	}
	if mv.Algorithms["heftbudg"] != 2 {
		t.Errorf("algorithms.heftbudg = %d, want 2 (the plan and the alias hit)", mv.Algorithms["heftbudg"])
	}
	if mv.Cache.Hits != 1 || mv.Cache.BodyHits != 1 || mv.Cache.Aliases != 1 {
		t.Errorf("expvar cache = %+v, want hits 1, bodyHits 1, aliases 1", mv.Cache)
	}
	_, prom := get(t, ts, "/metrics?format=prometheus")
	for _, line := range []string{
		"budgetwfd_cache_hits_total 1\n",
		"budgetwfd_cache_body_hits_total 1\n",
		"budgetwfd_cache_aliases 1\n",
	} {
		if !bytes.Contains(prom, []byte(line)) {
			t.Errorf("Prometheus text lacks %q", line)
		}
	}

	code, tree := get(t, ts, "/v1/traces/"+id)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/traces/%s = %d", id, code)
	}
	var stored obs.TraceJSON
	if err := json.Unmarshal(tree, &stored); err != nil {
		t.Fatal(err)
	}
	if fast, ok := cacheHitFast(stored.Root); !ok || !fast {
		t.Errorf("alias hit's root span: cache-hit event present=%v fast=%v", ok, fast)
	}
	if stored.Root.Attrs["algorithm"] != "heftbudg" || stored.Root.Attrs["status"] != float64(http.StatusOK) {
		t.Errorf("alias hit's root span attrs = %v", stored.Root.Attrs)
	}

	logged := false
	for _, line := range logs.lines(t) {
		if line["msg"] == "request" && line["requestId"] == id {
			logged = line["status"] == float64(http.StatusOK) && line["path"] == "/v1/schedule"
		}
	}
	if !logged {
		t.Errorf("no request log line for the alias hit %s", id)
	}
}

// TestAliasHitAllocations keeps the shortcut from silently regrowing:
// the whole handler stack — middleware, span, digest, lookup, write,
// log line — on a recorder, with the request built outside the count.
func TestAliasHitAllocations(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1})
	h := s.Handler()
	body := scheduleBody(t, workflowJSON(t, 50, 1), "heftbudg", 100)

	reader := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule", nil)
	req.Body = io.NopCloser(reader)
	serve := func() *httptest.ResponseRecorder {
		reader.Reset(body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	if rec := serve(); rec.Code != http.StatusOK {
		t.Fatalf("priming request = %d: %s", rec.Code, rec.Body)
	}
	if rec := serve(); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"cached":true`) {
		t.Fatalf("repeat = %d, not a cached response", rec.Code)
	}
	before := s.metrics.reg.Value("budgetwfd_cache_body_hits_total", "")
	const runs = 50
	allocs := testing.AllocsPerRun(runs, func() { serve() })
	if got := s.metrics.reg.Value("budgetwfd_cache_body_hits_total", "") - before; got != runs+1 { // AllocsPerRun warms up once
		t.Fatalf("%v of %v measured requests took the alias", got, runs+1)
	}
	if allocs > 64 {
		t.Errorf("an alias hit allocates %v objects, want ≤ 64", allocs)
	}
	t.Logf("alias hit: %v allocations", allocs)
}
