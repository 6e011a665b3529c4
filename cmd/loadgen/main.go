// Command loadgen fires concurrent requests at a running budgetwfd and
// reports the outcome mix, latency spread and retries. Every HTTP mode
// runs the same closed loop: -n requests over -c clients sharing one
// http.Client, 429s answered with the server's Retry-After under a
// capped, jittered exponential backoff, and one summary. A mode only
// says what request i is and what it reads from the answer.
//
// The default mode POSTs /v1/schedule: the load half of `make
// loadtest`. A few hundred requests over a handful of distinct
// workflows demonstrates both the admission control (429s under a
// small pool) and the plan cache (most repeats served as hits).
//
// With -jobs it exercises the async-job subsystem: it submits sweep
// campaigns to POST /v1/jobs, polls each job with the same backoff
// until the job is terminal, and reports end-to-end job latency plus
// the dedupe rate (repeated specs collapse onto one job, like cache
// hits).
//
// With -tenants it drives the multi-tenant shared-pool service of a
// daemon started with -pool: submissions are spread round-robin over
// that many tenant identities against POST /v1/submit, and the report
// includes per-tenant billing ledgers from GET /v1/tenants — how many
// VMs each tenant leased from other tenants' already-paid billing
// periods, and how much provisioning cost the sharing saved.
//
// With -chaos it ignores -url, builds budgetwfd from the enclosing
// module, boots a real multi-process cluster (one journal-backed
// coordinator plus -chaos-workers shard workers), submits a sweep job,
// SIGKILLs a random worker and kill-restarts the coordinator mid-run,
// and verifies the merged result is byte-identical to an undisturbed
// single-process /v1/sweep (see internal/dist/chaostest).
//
// Usage:
//
//	loadgen -url http://localhost:8080 -n 200 -c 16 -distinct 4
//	loadgen -url http://localhost:8080 -jobs -n 8 -c 4 -distinct 4
//	loadgen -url http://localhost:8080 -tenants 3 -n 30 -c 4
//	loadgen -chaos -chaos-workers 3 -size 60
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"budgetwf/internal/stats"
	"budgetwf/internal/wfgen"
)

// client is the one HTTP client every request of a run goes through.
var client = &http.Client{Timeout: 60 * time.Second}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	baseURL := fs.String("url", "http://localhost:8080", "budgetwfd base URL")
	total := fs.Int("n", 200, "total requests")
	conc := fs.Int("c", 16, "concurrent clients")
	distinct := fs.Int("distinct", 4, "distinct workflows (repeats hit the cache)")
	size := fs.Int("size", 30, "tasks per generated workflow")
	alg := fs.String("alg", "heftbudg", "algorithm to request")
	retries := fs.Int("retries", 3, "retries per request after a 429 (0 disables)")
	retryCap := fs.Duration("retry-cap", 10*time.Second, "ceiling on a single retry backoff sleep")
	jobsMode := fs.Bool("jobs", false, "async-job mode: submit sweep campaigns to /v1/jobs and poll to completion")
	jobTimeout := fs.Duration("job-timeout", 5*time.Minute, "give up polling a job after this long")
	tenants := fs.Int("tenants", 0, "multi-tenant mode: spread submissions over this many tenants against POST /v1/submit of a pool-enabled daemon (budgetwfd -pool)")
	chaos := fs.Bool("chaos", false, "chaos mode: boot a local multi-process cluster, kill a worker and restart the coordinator mid-sweep, and byte-diff the merged result against an undisturbed run")
	chaosWorkers := fs.Int("chaos-workers", 3, "shard workers in the -chaos cluster")
	chaosSeed := fs.Int64("chaos-seed", 1, "seed picking which worker dies in -chaos mode")
	if err := fs.Parse(args); err != nil {
		return err
	}
	*distinct = max(*distinct, 1)
	*conc = max(*conc, 1)
	if *chaos {
		// -size defaults to 30 for the schedule modes; chaos needs a
		// sweep heavy enough that the kills land mid-run, so only an
		// explicit -size overrides the harness default sizing.
		chaosSize := 0
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "size" {
				chaosSize = *size
			}
		})
		return runChaos(stdout, *chaosWorkers, chaosSize, *chaosSeed, *jobTimeout)
	}
	if *jobsMode {
		return runJobs(stdout, *baseURL, *total, *conc, *distinct, *size, *retryCap, *jobTimeout)
	}
	retry429 := retryPolicy{cap: *retryCap, retries: *retries}
	if *tenants > 0 {
		return runTenants(stdout, *baseURL, *total, *conc, *tenants, *size, *alg, retry429)
	}

	// Pre-render the request bodies: distinct Montage instances, each
	// with a generous budget so every algorithm finds a feasible plan.
	bodies := make([][]byte, *distinct)
	for i := range bodies {
		body, err := workflowBody(1000+i, *size, map[string]any{"algorithm": *alg, "budget": 100.0})
		if err != nil {
			return err
		}
		bodies[i] = body
	}
	answers := make([]struct {
		Cached bool `json:"cached"`
	}, *total)
	outs, wall := drive(*total, *conc, func(i int, rnd *rand.Rand) outcome {
		return post(*baseURL+"/v1/schedule", bodies[i%len(bodies)], retry429, rnd, &answers[i])
	})
	hits := 0
	for _, a := range answers {
		if a.Cached {
			hits++
		}
	}
	mix := report(stdout, fmt.Sprintf("loadgen: %d requests, concurrency %d, %d distinct workflows, %.2fs wall",
		*total, *conc, *distinct, wall.Seconds()), "latency", outs,
		fmt.Sprintf("cache hits (client-observed): %d", hits), retries429(outs))
	if s5 := mix["status 500"]; s5 > 0 {
		return fmt.Errorf("%d requests returned 500", s5)
	}
	return nil
}

// workflowBody renders a request body holding a σ/w̄ = 0.5 Montage
// instance of the given size and seed as "workflow", next to fields.
func workflowBody(seed, size int, fields map[string]any) ([]byte, error) {
	w, err := wfgen.Generate(wfgen.Montage, size, uint64(seed))
	if err != nil {
		return nil, err
	}
	var wbuf bytes.Buffer
	if err := w.WithSigmaRatio(0.5).WriteJSON(&wbuf); err != nil {
		return nil, err
	}
	fields["workflow"] = json.RawMessage(wbuf.Bytes())
	return json.Marshal(fields)
}

// outcome is what one request of a closed-loop run came to.
type outcome struct {
	class   string        // "status 200", or a job's final state; "" if it has none
	retried int           // backoff sleeps before the final answer
	latency time.Duration // first send to final answer; 0 leaves it out of the latency summary
	err     error         // the transport error that ended it
}

// drive is the closed loop every HTTP mode runs: n requests over c
// clients, request i made by do with a jitter source seeded by i, so a
// rerun backs off on the same schedule. It returns the outcomes in
// request order and the wall time.
func drive(n, c int, do func(i int, rnd *rand.Rand) outcome) ([]outcome, time.Duration) {
	outs := make([]outcome, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, c)
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			outs[i] = do(i, rand.New(rand.NewSource(int64(i)+1)))
		}(i)
	}
	wg.Wait()
	return outs, time.Since(start)
}

// post is one request of the schedule and tenant modes: body POSTed
// to url under p, the final answer decoded into answer as far as it
// fits (a 429 or an error body leaves it zero).
func post(url string, body []byte, p retryPolicy, rnd *rand.Rand, answer any) outcome {
	t0 := time.Now()
	status, raw, retried, err := send(url, body, p, rnd)
	if err != nil {
		return outcome{retried: retried, err: err}
	}
	_ = json.Unmarshal(raw, answer)
	return outcome{class: fmt.Sprintf("status %d", status), retried: retried, latency: time.Since(t0)}
}

// get GETs url and decodes its JSON answer into v. A non-2xx answer
// is an error naming the status and the body; status is 0 after a
// transport error.
func get(url string, v any) (status int, err error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode/100 != 2:
		return resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	case err == nil && json.Unmarshal(raw, v) != nil:
		err = fmt.Errorf("bad body %q", raw)
	}
	return resp.StatusCode, err
}

// retryPolicy says which answers send retries. Both policies sleep
// retryDelay between attempts.
type retryPolicy struct {
	cap      time.Duration
	retries  int       // without a deadline: retry a 429 at most this many times
	deadline time.Time // when set: retry transport errors and transientStatus answers until then
}

// send POSTs body to url until p stops retrying, and returns the final
// answer and the retries it took. The error is the transport error
// that ended it or, past p's deadline, the last failure: that
// transport error or the last status.
func send(url string, body []byte, p retryPolicy, rnd *rand.Rand) (status int, raw []byte, retried int, err error) {
	for ; ; retried++ {
		resp, err := client.Post(url, "application/json", bytes.NewReader(body))
		retryAfter := ""
		if err == nil {
			status, retryAfter = resp.StatusCode, resp.Header.Get("Retry-After")
			raw, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		if p.deadline.IsZero() {
			if err != nil || status != http.StatusTooManyRequests || retried >= p.retries {
				return status, raw, retried, err
			}
		} else if err == nil && !transientStatus(status) {
			return status, raw, retried, nil
		} else if time.Now().After(p.deadline) {
			if err == nil {
				err = fmt.Errorf("last status %d", status)
			}
			return status, raw, retried, err
		}
		time.Sleep(retryDelay(retryAfter, retried, p.cap, rnd, time.Now()))
	}
}

// report prints a run's summary and returns its class mix: the header,
// how many outcomes ended in each class, the transport errors, the
// mode's own lines, and the p50/p90/p99/max latency under label.
func report(w io.Writer, header, label string, outs []outcome, own ...string) map[string]int {
	mix := map[string]int{}
	var classes []string
	var ms []float64
	errs := 0
	for _, o := range outs {
		if o.class != "" {
			if mix[o.class] == 0 {
				classes = append(classes, o.class)
			}
			mix[o.class]++
		}
		if o.err != nil {
			errs++
		}
		if o.latency > 0 {
			ms = append(ms, float64(o.latency)/float64(time.Millisecond))
		}
	}
	fmt.Fprintln(w, header)
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(w, "  %s: %d\n", c, mix[c])
	}
	if errs > 0 {
		fmt.Fprintf(w, "  transport errors: %d\n", errs)
	}
	for _, line := range own {
		fmt.Fprintf(w, "  %s\n", line)
	}
	q := func(p float64) time.Duration { return percentile(ms, p) }
	fmt.Fprintf(w, "  %s p50=%v p90=%v p99=%v max=%v\n", label, q(50), q(90), q(99), q(100))
	return mix
}

// retries429 is the retry line of the schedule and tenant modes.
func retries429(outs []outcome) string {
	n, reqs := 0, 0
	for _, o := range outs {
		n += o.retried
		if o.retried > 0 {
			reqs++
		}
	}
	return fmt.Sprintf("429 retries: %d across %d requests", n, reqs)
}

// percentile returns the p-th percentile (0..100) of latencies given in
// milliseconds, as a duration; 0 when there are none.
func percentile(ms []float64, p float64) time.Duration {
	return fromMs(stats.Percentile(ms, p))
}

// fromMs converts milliseconds back to a duration, to the nearest
// nanosecond.
func fromMs(ms float64) time.Duration {
	return time.Duration(math.Round(ms * float64(time.Millisecond)))
}

// transientStatus reports whether an HTTP status from the coordinator
// should be retried like a connection failure: 502/503/504 cover a
// restarting or draining daemon (and any proxy in front of it), and
// 429 is the admission queue asking for backoff.
func transientStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// retryDelay computes the sleep before the (attempt+1)-th try of a
// 429-rejected request: the server's Retry-After hint (default 100ms
// when absent or unparseable) doubled per prior attempt, clamped to
// cap, minus up to a quarter of random jitter so synchronized clients
// spread out instead of stampeding back together.
//
// RFC 9110 §10.2.3 allows two Retry-After forms, and both are honored:
// a non-negative integer of delta-seconds (0 meaning "retry now": no
// backoff beyond the jitterless zero sleep), or an HTTP-date, whose
// delta from now is used (a date in the past counts as 0). Negative
// integers and anything unparseable fall back to the default base.
func retryDelay(retryAfter string, attempt int, cap time.Duration, rnd *rand.Rand, now time.Time) time.Duration {
	base := 100 * time.Millisecond
	if secs, err := strconv.Atoi(strings.TrimSpace(retryAfter)); err == nil && secs >= 0 {
		base = time.Duration(secs) * time.Second
	} else if at, err := http.ParseTime(strings.TrimSpace(retryAfter)); err == nil {
		base = at.Sub(now)
		if base < 0 {
			base = 0
		}
	}
	if cap > 0 && base > cap {
		base = cap
	}
	d := base
	for i := 0; i < attempt && d < cap; i++ {
		d *= 2
	}
	if cap > 0 && d > cap {
		d = cap
	}
	if d <= 0 {
		return 0
	}
	return d - time.Duration(rnd.Int63n(int64(d)/4+1))
}
