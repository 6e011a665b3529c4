package bench

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"

	"budgetwf/internal/platform"
	"budgetwf/internal/sched"
	"budgetwf/internal/server"
	"budgetwf/internal/wf"
	"budgetwf/internal/wfgen"
)

// daemonWorkflowSize keeps a daemon op dominated by request handling
// (decode, cache, encode) rather than planning, so the suite tracks
// the serving stack's overhead.
const daemonWorkflowSize = 50

// Daemon builds the budgetwfd suite: an in-process server (httptest,
// no real network) driven over /v1/schedule, and beside it the layers
// a request crosses, measured alone on the same workflow so that the
// end-to-end cases can be read against them.
//
//   - schedule-warm: the same body repeatedly — after the first op
//     every response is a body-alias cache hit that parses nothing,
//     measuring the serving floor;
//   - schedule-warm-canonical: the same workflow under a fresh
//     spelling every op (the workflow label changes), so the alias
//     never matches and every op pays decode, validation and the
//     content key before it hits the cache;
//   - schedule-cold: caching disabled (CacheSize -1), so every op runs
//     the planner — the cache-miss cost;
//   - schedule-parallel-warm: the warm case under GOMAXPROCS
//     concurrent clients via b.RunParallel, measuring request
//     throughput under the worker-pool admission control (ops_per_sec
//     is the aggregate request rate);
//   - wf-decode, wf-content-key, plan-fresh/heftbudg: the library
//     calls behind those, no server: parsing the workflow document,
//     hashing its content (its part of the cache key), and planning it
//     from scratch — what a warm hit has to beat for the cache to pay.
//
// daemonLimits holds the relations between these cases that
// cmd/bench -check enforces.
func Daemon(seed uint64) ([]Case, error) {
	w, err := wfgen.Generate(wfgen.Montage, daemonWorkflowSize, seed)
	if err != nil {
		return nil, err
	}
	w = w.WithSigmaRatio(0.5)
	// The label is the one part of the body that varies between
	// spellings; everything else is rendered once.
	w.Name = spellingMark
	var wfJSON bytes.Buffer
	if err := w.WriteJSON(&wfJSON); err != nil {
		return nil, err
	}
	const budget = 100.0 // generous
	template, err := json.Marshal(map[string]any{
		"workflow":  json.RawMessage(wfJSON.Bytes()),
		"algorithm": sched.NameHeftBudg,
		"budget":    budget,
	})
	if err != nil {
		return nil, err
	}
	before, after, ok := bytes.Cut(template, []byte(spellingMark))
	if !ok {
		return nil, fmt.Errorf("bench: workflow label not found in the request template")
	}
	fixed := func(int64) []byte { return template }
	respelled := func(i int64) []byte {
		body := append([]byte(nil), before...)
		body = strconv.AppendInt(body, i, 10)
		return append(body, after...)
	}
	plat := platform.Default()
	pooled := server.Config{Workers: runtime.GOMAXPROCS(0), QueueDepth: 1024}
	uncached := pooled
	uncached.CacheSize = -1

	cases := []Case{
		{Name: "plan-fresh/heftbudg/montage/n0050", Bench: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sched.PlanContext(context.Background(), sched.NameHeftBudg, w, plat, budget); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{Name: "schedule-cold/montage/n0050", Bench: func(b *testing.B) {
			benchServer(b, fixed, uncached, false)
		}},
		{Name: "schedule-parallel-warm/montage/n0050", Bench: func(b *testing.B) {
			benchServer(b, fixed, pooled, true)
		}},
		{Name: "schedule-warm-canonical/montage/n0050", Bench: func(b *testing.B) {
			benchServer(b, respelled, pooled, false)
		}},
		{Name: "schedule-warm/montage/n0050", Bench: func(b *testing.B) {
			benchServer(b, fixed, pooled, false)
		}},
		{Name: "wf-content-key/montage/n0050", Bench: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if sha256.Sum256(w.AppendContent(nil)) == [sha256.Size]byte{} {
					b.Fatal("zero digest")
				}
			}
		}},
		{Name: "wf-decode/montage/n0050", Bench: func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wf.Decode(wfJSON.Bytes()); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].Name < cases[j].Name })
	return cases, nil
}

// spellingMark stands in the request template where the per-op
// spelling number goes.
const spellingMark = "@spelling@"

// benchServer measures POST /v1/schedule round trips against a fresh
// in-process server. One op = one request, fully read and checked;
// bodyAt gives the body of the i-th op.
func benchServer(b *testing.B, bodyAt func(i int64) []byte, cfg server.Config, parallel bool) {
	b.Helper()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	var ops atomic.Int64
	post := func() error {
		body := bodyAt(ops.Add(1))
		resp, err := client.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status %d", resp.StatusCode)
		}
		return nil
	}
	// Prime once outside the timed region: the warm variants measure
	// steady-state hits, not the first miss.
	if err := post(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if parallel {
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if err := post(); err != nil {
					b.Fatal(err)
				}
			}
		})
		return
	}
	for i := 0; i < b.N; i++ {
		if err := post(); err != nil {
			b.Fatal(err)
		}
	}
}
