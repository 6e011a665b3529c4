package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"budgetwf/internal/exp"
	"budgetwf/internal/obs"
	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/sched"
	"budgetwf/internal/sim"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// serveWorkload is serve-hot and serve-miss: closed-loop clients
// cycling a fixed list of POST /v1/schedule bodies against one real
// daemon. With few bodies every request after warm-up is a cache hit
// (decode → canonical hash → cache → encode); with three times more
// bodies than cache entries, cycled in order, the LRU never hits and
// every request plans, simulates, inserts and evicts.
type serveWorkload struct {
	sz     sizes
	hot    bool
	bodies []serveBody
	sum    string
	d      *daemon
	next   atomic.Int64 // index of the next body, shared by the clients
}

// serveBody is one request and what its response must contain.
type serveBody struct {
	body   []byte
	alg    sched.Name
	budget float64
	// schedule is the reference plan as it appears in a response:
	// `"schedule":<plan JSON>,"numVMs"`.
	schedule []byte
}

// workflowJSON is the workflow exactly as the request carries it, the
// bytes the daemon hands to wf.ReadJSON.
func (b serveBody) workflowJSON() (json.RawMessage, error) {
	var req struct {
		Workflow json.RawMessage `json:"workflow"`
	}
	err := json.Unmarshal(b.body, &req)
	return req.Workflow, err
}

var serveAlgorithms = []sched.Name{
	sched.NameHeftBudg, sched.NameMinMinBudg, sched.NameBDT, sched.NameCG, sched.NameHeft,
}

func (s *serveWorkload) name() string {
	if s.hot {
		return "serve-hot"
	}
	return "serve-miss"
}

func (s *serveWorkload) setup(e *env) error {
	plat := platform.Default()
	families := wfgen.AllPaperTypes()
	workflows, fracs := len(families)*s.sz.hotSeeds, []float64{0.5}
	if !s.hot {
		workflows, fracs = s.sz.missWorkflows, []float64{0.35, 0.5, 0.65}
	}
	type combo struct {
		alg  sched.Name
		frac float64
	}
	var combos []combo
	for _, a := range serveAlgorithms {
		for _, f := range fracs {
			combos = append(combos, combo{a, f})
		}
	}
	// Body k pairs workflow k mod W with combination k div W, so
	// neighbouring requests never share a workflow.
	s.bodies = make([]serveBody, workflows*len(combos))
	digest := sha256.New()
	for i := 0; i < workflows; i++ {
		w, err := generate(families[i%len(families)], s.sz.n, itemSeed(e.seed, s.name(), i))
		if err != nil {
			return err
		}
		var wfJSON bytes.Buffer
		if err := w.WriteJSON(&wfJSON); err != nil {
			return err
		}
		anchors, err := exp.ComputeAnchors(w, plat)
		if err != nil {
			return err
		}
		for c, cb := range combos {
			b, err := newServeBody(w, plat, wfJSON.Bytes(), cb.alg, budgetAt(anchors, cb.frac))
			if err != nil {
				return err
			}
			s.bodies[c*workflows+i] = b
		}
	}
	for _, b := range s.bodies {
		digest.Write(b.schedule)
	}
	s.sum = hex.EncodeToString(digest.Sum(nil))

	args := []string{"-workers", "2"}
	if !s.hot && s.sz.cacheSize > 0 {
		args = append(args, "-cache-size", strconv.Itoa(s.sz.cacheSize))
	}
	var err error
	if s.d, err = e.procs.start(e.bin, filepath.Join(e.out, s.name()+".log"), e.client, args...); err != nil {
		return err
	}
	// Warm-up. Hot: each body once, so every measured request hits.
	// Miss: the tail of the cycle, as many bodies as the cache holds, so
	// the cache is full of entries the measured phase will not ask for
	// before it has evicted them — every measured request inserts and
	// evicts, none hits.
	warm := s.bodies
	if !s.hot {
		warm = s.bodies[len(s.bodies)-s.cacheEntries():]
	}
	var buf bytes.Buffer
	for _, b := range warm {
		if err := s.post(e.client, b, &buf, false); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// nextBody takes the next body of the cycle.
func (s *serveWorkload) nextBody() serveBody {
	return s.bodies[int(s.next.Add(1)-1)%len(s.bodies)]
}

func (s *serveWorkload) cacheEntries() int {
	if s.sz.cacheSize > 0 {
		return s.sz.cacheSize
	}
	return 512
}

// newServeBody renders one request and plans it in-process for the
// reference its responses are checked against.
func newServeBody(w *wf.Workflow, plat *platform.Platform, wfJSON []byte, alg sched.Name, budget float64) (serveBody, error) {
	body, err := json.Marshal(struct {
		Workflow  json.RawMessage `json:"workflow"`
		Algorithm sched.Name      `json:"algorithm"`
		Budget    float64         `json:"budget"`
	}{wfJSON, alg, budget})
	if err != nil {
		return serveBody{}, err
	}
	ref, err := sched.PlanContext(context.Background(), alg, w, plat, budget)
	if err != nil {
		return serveBody{}, err
	}
	if err := ref.Validate(w, plat.NumCategories()); err != nil {
		return serveBody{}, fmt.Errorf("%s reference plan: %w", alg, err)
	}
	var buf bytes.Buffer
	if err := ref.WriteJSON(&buf); err != nil {
		return serveBody{}, err
	}
	// The daemon embeds the plan as a json.RawMessage, which Marshal
	// compacts; do the same to get the bytes a response carries.
	compact, err := json.Marshal(json.RawMessage(buf.Bytes()))
	if err != nil {
		return serveBody{}, err
	}
	schedule := append([]byte(`"schedule":`), compact...)
	return serveBody{body: body, alg: alg, budget: budget, schedule: append(schedule, `,"numVMs"`...)}, nil
}

// roundTrip sends one body and reads the whole response into buf.
func (s *serveWorkload) roundTrip(client *http.Client, b serveBody, buf *bytes.Buffer) (status int, err error) {
	resp, err := client.Post(s.d.url+"/v1/schedule", "application/json", bytes.NewReader(b.body))
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// post is roundTrip plus verify.
func (s *serveWorkload) post(client *http.Client, b serveBody, buf *bytes.Buffer, checkCached bool) error {
	status, err := s.roundTrip(client, b, buf)
	if err != nil {
		return err
	}
	return s.verify(status, b, buf.Bytes(), checkCached)
}

// verify checks a response: 200, the reference plan byte for byte, and
// the cached flag the workload expects (checkCached is off during
// warm-up, when hits are yet to come).
func (s *serveWorkload) verify(status int, b serveBody, resp []byte, checkCached bool) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, resp)
	}
	if !bytes.Contains(resp, b.schedule) {
		return fmt.Errorf("%s response does not carry the reference plan", b.alg)
	}
	if checkCached && !bytes.Contains(resp, []byte(`"cached":`+strconv.FormatBool(s.hot))) {
		return fmt.Errorf("%s response: cached is not %v", b.alg, s.hot)
	}
	return nil
}

func (s *serveWorkload) run(e *env, d time.Duration) (*phase, error) {
	mem0, err := s.d.memstats(e.client)
	if err != nil {
		return nil, err
	}
	met0, err := s.d.metrics(e.client)
	if err != nil {
		return nil, err
	}

	type clientLog struct {
		lat, gaps []float64
		attempted int
		failed    int
		firstErr  error
	}
	logs := make([]clientLog, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := range logs {
		wg.Add(1)
		go func(l *clientLog) {
			defer wg.Done()
			var buf bytes.Buffer
			var lastDone time.Time
			for {
				t0 := time.Now()
				if t0.After(deadline) {
					return
				}
				b := s.nextBody()
				if !lastDone.IsZero() {
					l.gaps = append(l.gaps, float64(t0.Sub(lastDone))/float64(time.Microsecond))
				}
				status, err := s.roundTrip(e.client, b, &buf)
				lastDone = time.Now()
				l.attempted++
				if err == nil {
					err = s.verify(status, b, buf.Bytes(), true)
				}
				if err != nil {
					l.failed++
					if l.firstErr == nil {
						l.firstErr = err
					}
					continue
				}
				l.lat = append(l.lat, float64(lastDone.Sub(t0))/float64(time.Millisecond))
			}
		}(&logs[c])
	}
	wg.Wait()
	ph := &phase{wall: time.Since(start), layer: make(map[string]float64)}

	mem1, err := s.d.memstats(e.client)
	if err != nil {
		return nil, err
	}
	met1, err := s.d.metrics(e.client)
	if err != nil {
		return nil, err
	}
	var gaps []float64
	for _, l := range logs {
		ph.latMs = append(ph.latMs, l.lat...)
		gaps = append(gaps, l.gaps...)
		ph.attempted += l.attempted
		ph.failed += l.failed
		if l.firstErr != nil {
			warn("%s: first failed op: %v", s.name(), l.firstErr)
		}
	}
	ph.mem = mem1.sub(mem0)

	sorted := sortedCopy(ph.latMs)
	reqs := met1.LatencyMs["schedule"].Count - met0.LatencyMs["schedule"].Count
	hits := met1.Cache.Hits - met0.Cache.Hits
	misses := met1.Cache.Misses - met0.Cache.Misses
	ph.layer["server.handler_ms"] = ratio(met1.LatencyMs["schedule"].SumMs-met0.LatencyMs["schedule"].SumMs, reqs)
	ph.layer["server.cache_hit_share"] = ratio(hits, hits+misses)
	ph.layer["server.gc_per_kreq"] = ratio(1000*float64(ph.mem.NumGC), reqs)
	ph.layer["server.gc_pause_ms_per_kreq"] = ratio(1000*float64(ph.mem.PauseTotalNs)/1e6, reqs)
	ph.layer["server.status_429"] = met1.statusCount(429, 429) - met0.statusCount(429, 429)
	ph.layer["server.status_5xx"] = met1.statusCount(500, 599) - met0.statusCount(500, 599)
	ph.layer["server.op_p95_ms"], _ = tailPercentile(sorted, 0.95)
	ph.layer["server.op_p99_ms"], _ = tailPercentile(sorted, 0.99)
	ph.layer["bench.client_gap_us"] = median(gaps)
	return ph, nil
}

func (s *serveWorkload) traced(e *env, rec *recorder, untraced *phase) (map[string]float64, error) {
	var buf bytes.Buffer
	// The HTTP floor: a handler that does nothing.
	for i := 0; i < s.sz.loopbackOps; i++ {
		var err error
		rec.time("server.loopback", -1, 0, func() {
			var resp *http.Response
			if resp, err = e.client.Get(s.d.url + "/healthz"); err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		})
		if err != nil {
			return nil, err
		}
	}

	// The same sample size once with the recorder off, one client, for
	// the round trip the traced one is compared with.
	var plain []float64
	for i := 0; i < s.sz.traceBodies; i++ {
		b := s.nextBody()
		t0 := time.Now()
		if err := s.post(e.client, b, &buf, true); err != nil {
			return nil, err
		}
		plain = append(plain, float64(time.Since(t0))/float64(time.Microsecond))
	}

	// Each sampled op: the real round trip, then the library layers the
	// daemon crossed for it, replayed here on the same bytes.
	plat := platform.Default()
	var sample []serveBody
	for i := 0; i < s.sz.traceBodies; i++ {
		op := i + 1
		b := s.nextBody()
		sample = append(sample, b)
		root := rec.begin("request", -1, op)
		var err error
		rec.time("server.roundtrip", root, op, func() { err = s.post(e.client, b, &buf, true) })
		if err != nil {
			return nil, err
		}
		if err := s.replay(rec, root, op, b, plat); err != nil {
			return nil, err
		}
		rec.end(root)
	}

	layers := map[string]float64{
		"server.loopback_us": rec.medianOf("server.loopback", time.Microsecond),
		"wf.decode_us":       rec.medianOf("wf.decode", time.Microsecond),
		"wf.hash_us":         rec.medianOf("wf.hash", time.Microsecond),
		"platform.hash_us":   rec.medianOf("platform.hash", time.Microsecond),
	}
	library := layers["wf.decode_us"] + layers["wf.hash_us"] + layers["platform.hash_us"]
	if !s.hot {
		layers["sched.plan_us"] = rec.medianOf("sched.plan", time.Microsecond)
		layers["sim.det_us"] = rec.medianOf("sim.det", time.Microsecond)
		layers["plan.encode_us"] = rec.medianOf("plan.encode", time.Microsecond)
		library += layers["sched.plan_us"] + layers["sim.det_us"] + layers["plan.encode_us"]
		var err error
		if layers["obs.plan_traced_ratio"], err = planTracedRatio(sample, plat); err != nil {
			return nil, err
		}
	}
	roundtrip := rec.medianOf("server.roundtrip", time.Microsecond)
	// What is left of the round trip is the daemon's own: envelope
	// decode, cache, response marshal, middleware, worker hand-off, GC.
	layers["server.residual_us"] = roundtrip - layers["server.loopback_us"] - library
	if layers["server.residual_us"] < 0 {
		warn("%s: server.residual_us is negative: the replayed library layers cost more than the daemon's round trip", s.name())
	}
	layers["bench.trace_overhead_share"] = ratio(roundtrip, median(plain)) - 1
	return layers, nil
}

// replay runs, on the request's own bytes, the library calls the
// daemon makes for it: decode and the two canonical hashes always, and
// on a miss the planner, the deterministic simulation and the plan
// encoder.
func (s *serveWorkload) replay(rec *recorder, root, op int, b serveBody, plat *platform.Platform) error {
	raw, err := b.workflowJSON()
	if err != nil {
		return err
	}
	var w *wf.Workflow
	rec.time("wf.decode", root, op, func() { w, err = wf.ReadJSON(bytes.NewReader(raw)) })
	if err != nil {
		return err
	}
	rec.time("wf.hash", root, op, func() { _ = w.CanonicalHash() })
	rec.time("platform.hash", root, op, func() { _ = platform.Default().CanonicalHash() })
	if s.hot {
		return nil
	}
	var p *plan.Schedule
	rec.time("sched.plan", root, op, func() { p, err = sched.PlanContext(context.Background(), b.alg, w, plat, b.budget) })
	if err != nil {
		return err
	}
	rec.time("sim.det", root, op, func() { _, err = sim.RunDeterministic(w, plat, p) })
	if err != nil {
		return err
	}
	var out bytes.Buffer
	rec.time("plan.encode", root, op, func() { err = p.WriteJSON(&out) })
	return err
}

// planTracedRatio is the cost of deep tracing on the planner: the time
// of sched.PlanContext under an obs span (the planner then emits its
// decision trace) over the time without, summed over the sample.
func planTracedRatio(sample []serveBody, plat *platform.Platform) (float64, error) {
	var plain, traced time.Duration
	for _, b := range sample {
		raw, err := b.workflowJSON()
		if err != nil {
			return 0, err
		}
		w, err := wf.ReadJSON(bytes.NewReader(raw))
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if _, err := sched.PlanContext(context.Background(), b.alg, w, plat, b.budget); err != nil {
			return 0, err
		}
		t1 := time.Now()
		ctx := obs.WithSpan(context.Background(), obs.New("benchmark").Root())
		if _, err := sched.PlanContext(ctx, b.alg, w, plat, b.budget); err != nil {
			return 0, err
		}
		plain += t1.Sub(t0)
		traced += time.Since(t1)
	}
	return ratio(float64(traced), float64(plain)), nil
}

func (s *serveWorkload) digest() string { return s.sum }

func (s *serveWorkload) close() {
	if s.d != nil {
		s.d.stop()
	}
}
