package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"

	"budgetwf/internal/exp"
	"budgetwf/internal/wfgen"
)

// jobsWorkload is jobs-cluster: a coordinator and two shard workers,
// all real daemons, and one client submitting budget sweeps as async
// jobs. The cells computed are figs-list's kind of cells; what is new
// here is internal/dist — shard dispatch over loopback HTTP, merge,
// journal append and fsync, snapshots. One op is submit → done.
type jobsWorkload struct {
	sz          sizes
	coordinator *daemon
	workers     []*daemon
	algorithms  []string
	seed        uint64
	next        int      // index of the next job: every spec is distinct, so none dedupes
	refs        [][]byte // /v1/sweep results the first jobs are verified against
	localMs     []float64
	sum         string
}

// pollEvery is how often the client asks for a submitted job's state.
const pollEvery = 2 * time.Millisecond

// jobTimeout bounds one job; a job that takes longer counts as failed.
const jobTimeout = 30 * time.Second

func (j *jobsWorkload) setup(e *env) error {
	names, err := exp.FigureAlgorithms(3)
	if err != nil {
		return err
	}
	for _, n := range names {
		j.algorithms = append(j.algorithms, string(n))
	}
	j.seed = itemSeed(e.seed, "jobs-cluster", 0)

	var peers string
	for i := 0; i < 2; i++ {
		w, err := e.procs.start(e.bin, filepath.Join(e.out, fmt.Sprintf("jobs-worker%d.log", i+1)), e.client,
			"-worker", "-workers", "1")
		if err != nil {
			return err
		}
		j.workers = append(j.workers, w)
		if i > 0 {
			peers += ","
		}
		peers += w.url
	}
	journal := filepath.Join(e.out, "jobs.jsonl")
	for _, stale := range []string{journal, journal + ".snap", journal + ".lock"} {
		if err := os.Remove(stale); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	j.coordinator, err = e.procs.start(e.bin, filepath.Join(e.out, "jobs-coordinator.log"), e.client,
		"-workers", "1", "-peers", peers, "-journal", journal)
	if err != nil {
		return err
	}

	// The reference: the first jobs' sweeps run synchronously on one
	// worker, in one process. A job's merged result must equal it byte
	// for byte.
	digest := sha256.New()
	for i := 0; i < j.sz.tracedJobs; i++ {
		t0 := time.Now()
		body, err := j.postJSON(e.client, j.workers[0].url+"/v1/sweep", j.sweepSpec(i), http.StatusOK)
		if err != nil {
			return fmt.Errorf("reference sweep: %w", err)
		}
		j.localMs = append(j.localMs, float64(time.Since(t0))/float64(time.Millisecond))
		ref, err := comparableSweep(body)
		if err != nil {
			return err
		}
		j.refs = append(j.refs, ref)
		digest.Write(ref)
	}
	j.sum = hex.EncodeToString(digest.Sum(nil))
	return nil
}

// sweepSpec is job i's sweep: Figure 3's algorithms at the paper's
// scale, family cycling, a seed of its own.
func (j *jobsWorkload) sweepSpec(i int) map[string]any {
	families := wfgen.AllPaperTypes()
	return map[string]any{
		"workflowType": string(families[i%len(families)]),
		"n":            j.sz.n,
		"sigmaRatio":   sigmaRatio,
		"algorithms":   j.algorithms,
		"gridK":        j.sz.gridK,
		"instances":    j.sz.instances,
		"replications": j.sz.reps,
		"seed":         j.seed + uint64(i),
	}
}

func (j *jobsWorkload) postJSON(client *http.Client, url string, v any, want int) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("POST %s: status %d: %.200s", url, resp.StatusCode, body)
	}
	return body, nil
}

// comparableSweep keeps the fields of a sweep result that a job and a
// synchronous sweep must agree on, as the bytes the daemon sent.
func comparableSweep(body []byte) ([]byte, error) {
	var v struct {
		Series           json.RawMessage `json:"series"`
		MinCostMakespan  json.RawMessage `json:"minCostMakespan"`
		MinCostBudget    json.RawMessage `json:"minCostBudget"`
		BaselineMakespan json.RawMessage `json:"baselineMakespan"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		return nil, err
	}
	if len(v.Series) == 0 {
		return nil, fmt.Errorf("sweep result has no series")
	}
	return bytes.Join([][]byte{v.Series, v.MinCostMakespan, v.MinCostBudget, v.BaselineMakespan}, []byte{'\n'}), nil
}

// jobDone is what the client keeps of a finished job.
type jobDone struct {
	traceID string
	latency time.Duration
}

// job submits sweep i and polls until it is done, then checks the
// result: against the reference when there is one for i, else for
// having the series it asked for.
func (j *jobsWorkload) job(client *http.Client, i int) (jobDone, error) {
	t0 := time.Now()
	body, err := j.postJSON(client, j.coordinator.url+"/v1/jobs",
		map[string]any{"kind": "sweep", "sweep": j.sweepSpec(i)}, http.StatusAccepted)
	if err != nil {
		return jobDone{}, err
	}
	var sub struct {
		JobID   string `json:"jobId"`
		TraceID string `json:"traceId"`
		Deduped bool   `json:"deduped"`
	}
	if err := json.Unmarshal(body, &sub); err != nil {
		return jobDone{}, err
	}
	if sub.Deduped {
		return jobDone{}, fmt.Errorf("job %d was deduplicated onto an earlier one", i)
	}
	var view struct {
		State  string          `json:"state"`
		Error  string          `json:"error"`
		Result json.RawMessage `json:"result"`
	}
	for {
		if err := getJSON(client, j.coordinator.url+"/v1/jobs/"+sub.JobID, &view); err != nil {
			return jobDone{}, err
		}
		if view.State == "done" {
			break
		}
		if view.State == "failed" || view.State == "cancelled" {
			return jobDone{}, fmt.Errorf("job %s %s: %s", sub.JobID, view.State, view.Error)
		}
		if time.Since(t0) > jobTimeout {
			return jobDone{}, fmt.Errorf("job %s not done after %s", sub.JobID, jobTimeout)
		}
		time.Sleep(pollEvery)
	}
	done := jobDone{traceID: sub.TraceID, latency: time.Since(t0)}
	got, err := comparableSweep(view.Result)
	if err != nil {
		return done, err
	}
	if i < len(j.refs) && !bytes.Equal(got, j.refs[i]) {
		return done, fmt.Errorf("job %d: merged result differs from the synchronous /v1/sweep", i)
	}
	return done, nil
}

// daemons lists all three processes, coordinator first.
func (j *jobsWorkload) daemons() []*daemon {
	return append([]*daemon{j.coordinator}, j.workers...)
}

func (j *jobsWorkload) memstats(client *http.Client) (memSnap, error) {
	var total memSnap
	for _, d := range j.daemons() {
		m, err := d.memstats(client)
		if err != nil {
			return memSnap{}, err
		}
		total = total.add(m)
	}
	return total, nil
}

func (j *jobsWorkload) run(e *env, d time.Duration) (*phase, error) {
	mem0, err := j.memstats(e.client)
	if err != nil {
		return nil, err
	}
	met0, err := j.coordinator.metrics(e.client)
	if err != nil {
		return nil, err
	}
	served0, err := j.shardsServed(e.client)
	if err != nil {
		return nil, err
	}
	ph := &phase{layer: make(map[string]float64)}
	start := time.Now()
	for ph.attempted == 0 || time.Since(start) < d {
		done, err := j.job(e.client, j.next)
		j.next++
		ph.attempted++
		if err != nil {
			warn("jobs-cluster: %v", err)
			ph.failed++
			continue
		}
		ph.latMs = append(ph.latMs, float64(done.latency)/float64(time.Millisecond))
	}
	ph.wall = time.Since(start)
	mem1, err := j.memstats(e.client)
	if err != nil {
		return nil, err
	}
	met1, err := j.coordinator.metrics(e.client)
	if err != nil {
		return nil, err
	}
	served1, err := j.shardsServed(e.client)
	if err != nil {
		return nil, err
	}
	ph.mem = mem1.sub(mem0)

	jobs := float64(ph.attempted)
	c0, c1 := met0.Cluster.Coordinator, met1.Cluster.Coordinator
	ph.layer["dist.shards_per_job"] = (c1.Dispatched - c0.Dispatched) / jobs
	ph.layer["dist.requeued"] = c1.Requeued - c0.Requeued
	ph.layer["dist.stolen"] = c1.Stolen - c0.Stolen
	ph.layer["dist.local_fallbacks"] = c1.LocalFallbacks - c0.LocalFallbacks
	ph.layer["dist.journal_records_per_job"] = (met1.Cluster.Journal.Seq - met0.Cluster.Journal.Seq) / jobs
	for w := range served1 {
		served1[w] -= served0[w]
	}
	ph.layer["dist.shard_balance"] = ratio(slices.Min(served1), slices.Max(served1))
	return ph, nil
}

// shardsServed reads each worker's shard counter.
func (j *jobsWorkload) shardsServed(client *http.Client) ([]float64, error) {
	out := make([]float64, len(j.workers))
	for i, w := range j.workers {
		m, err := w.metrics(client)
		if err != nil {
			return nil, err
		}
		out[i] = m.ShardsServed
	}
	return out, nil
}

// traceSpan is a span of the daemon's GET /v1/traces/{id} tree.
type traceSpan struct {
	Name     string      `json:"name"`
	StartUs  float64     `json:"startUs"`
	DurUs    float64     `json:"durUs"`
	Children []traceSpan `json:"children"`
}

// traced runs a few more jobs one at a time, each inside a span, and
// hangs the job's own stitched trace — which the coordinator already
// records — under it: shard spans (dispatch to merge, as the
// coordinator saw them) with the workers' compute spans inside. The
// phases are read off that tree: compute is the time some worker was
// computing, dispatch the time shards were in flight with no worker
// computing, merge the job's self time — planning the shards, merging
// them, journalling.
func (j *jobsWorkload) traced(e *env, rec *recorder, untraced *phase) (map[string]float64, error) {
	var latency, dispatch, compute, merge, journalBytes []float64
	for k := 0; k < j.sz.tracedJobs; k++ {
		op := k + 1
		met0, err := j.coordinator.metrics(e.client)
		if err != nil {
			return nil, err
		}
		root := rec.begin("dist.job", -1, op)
		done, err := j.job(e.client, j.next)
		j.next++
		rec.end(root)
		if err != nil {
			return nil, err
		}
		met1, err := j.coordinator.metrics(e.client)
		if err != nil {
			return nil, err
		}
		// A compaction between the two readings truncates the tail and
		// makes the difference negative; such a job is left out.
		if b := met1.Cluster.Journal.TailBytes - met0.Cluster.Journal.TailBytes; b > 0 {
			journalBytes = append(journalBytes, b)
		}
		latency = append(latency, float64(done.latency)/float64(time.Millisecond))

		var tr struct {
			Root traceSpan `json:"root"`
		}
		if err := getJSON(e.client, j.coordinator.url+"/v1/traces/"+done.traceID, &tr); err != nil {
			return nil, err
		}
		// The job's trace starts when the coordinator starts running it;
		// align its end with the end of the span measured here.
		us := func(v float64) time.Duration { return time.Duration(v * float64(time.Microsecond)) }
		offset := rec.spans[root].end - us(tr.Root.StartUs+tr.Root.DurUs)
		at := func(s traceSpan) (time.Duration, time.Duration) {
			return offset + us(s.StartUs), offset + us(s.StartUs+s.DurUs)
		}
		st, en := at(tr.Root)
		run := rec.add("dist.run", st, en, root, op)
		var shards, computes []span
		for _, sh := range tr.Root.Children {
			st, en := at(sh)
			si := rec.add("dist.shard", st, en, run, op)
			shards = append(shards, rec.spans[si])
			for _, c := range sh.Children {
				st, en := at(c)
				computes = append(computes, rec.spans[rec.add("dist.compute", st, en, si, op)])
			}
		}
		runSpan := rec.spans[run]
		inFlight := cover(shards, runSpan.start, runSpan.end)
		computing := cover(computes, runSpan.start, runSpan.end)
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		compute = append(compute, ms(computing))
		dispatch = append(dispatch, ms(inFlight-computing))
		merge = append(merge, ms(runSpan.dur()-inFlight))
	}
	local := median(j.localMs)
	return map[string]float64{
		"dist.local_sweep_ms":        local,
		"dist.overhead_ms":           median(untraced.latMs) - local,
		"dist.phase.dispatch_ms":     median(dispatch),
		"dist.phase.compute_ms":      median(compute),
		"dist.phase.merge_ms":        median(merge),
		"dist.journal_bytes_per_job": median(journalBytes),
		"bench.trace_overhead_share": ratio(median(latency), median(untraced.latMs)) - 1,
	}, nil
}

func (j *jobsWorkload) digest() string { return j.sum }

func (j *jobsWorkload) close() {
	for _, d := range j.daemons() {
		if d != nil {
			d.stop()
		}
	}
}
