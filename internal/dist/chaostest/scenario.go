package chaostest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"time"
)

// Scenario describes one chaos run: a sweep job on a fresh cluster
// with a worker SIGKILLed once the sweep is under way and the
// coordinator kill-restarted once it is partly merged.
type Scenario struct {
	// Workers is the cluster size (default 3).
	Workers int
	// Sweep is the sweep spec, as the JSON object POST /v1/sweep
	// accepts. It must be big enough that the failures land mid-run;
	// DefaultSweep(size) is tuned for a few seconds of wall clock.
	Sweep map[string]any
	// Seed picks which worker dies (default 1).
	Seed int64
	// Timeout bounds the whole scenario (default 3m).
	Timeout time.Duration
	// Logf receives progress lines; nil discards them.
	Logf func(format string, args ...any)

	// KeepDir preserves the scratch directory (logs, journal) instead
	// of removing it on success. Failures always preserve it.
	KeepDir bool
}

// Report is the outcome of one chaos scenario.
type Report struct {
	JobID        string
	UnitsTotal   int
	KilledWorker int           // index of the SIGKILLed worker
	Reconnects   int           // polls retried across the coordinator restart
	Polls        int           // total status polls
	Elapsed      time.Duration // submit → terminal state
	Identical    bool          // merged result byte-identical to the reference
	ResultBytes  int           // size of the normalized merged result
	Dir          string        // scratch dir (empty if removed)

	// Journal durability, observed after completion.
	TailRecords   int   // journal tail length (≤ SnapshotEvery: compaction bounds it)
	SnapshotBytes int64 // snapshot size (> 0: at least one compaction ran)

	// Coordinator dispatch counters after completion (post-restart
	// incarnation only — counters do not survive the kill).
	Dispatched int64
	Requeued   int64
	Stolen     int64
	Duplicates int64

	// Stitched job trace, fetched from the restarted coordinator.
	TraceSpans      int // "X" events in the Chrome export
	TraceWorkerPids int // distinct non-coordinator pids among them
}

// DefaultSweep returns a sweep spec sized so a 3-worker cluster chews
// on it for over a second (96 units, ~25 status polls) — long enough
// that a worker SIGKILL and a coordinator restart both land strictly
// mid-run, with shards left for the restarted coordinator to dispatch.
func DefaultSweep(size int) map[string]any {
	if size <= 0 {
		size = 90
	}
	return map[string]any{
		"workflowType": "montage",
		"n":            size,
		"algorithms":   []string{"heft", "heftbudg"},
		"gridK":        6,
		"instances":    8,
		"replications": 400,
		"seed":         42,
	}
}

// Run executes the scenario against a freshly started cluster:
//
//  1. submit the sweep as an async job to the coordinator,
//  2. once the first units are merged, SIGKILL a seed-chosen worker,
//  3. once a third of the units are merged, SIGKILL the coordinator
//     and restart it on the same journal,
//  4. poll the same job id through the outage until it completes,
//  5. byte-compare the merged result against an undisturbed
//     synchronous /v1/sweep on a surviving worker, and
//  6. check the journal was compacted: a snapshot exists and the tail
//     is bounded by the snapshot-every threshold, and
//  7. fetch the job's stitched trace from the restarted coordinator
//     and check it carries spans from the coordinator and one lane for
//     exactly each worker the coordinator's own shard spans credit
//     with a completed shard (at least one; how the restarted
//     coordinator spreads what was left is not part of the contract).
//
// Any violated property is an error; a nil error means the
// survivable-crash contract held.
func Run(sc Scenario) (*Report, error) {
	if sc.Workers == 0 {
		sc.Workers = 3
	}
	if sc.Sweep == nil {
		sc.Sweep = DefaultSweep(0)
	}
	if sc.Seed == 0 {
		sc.Seed = 1
	}
	if sc.Timeout == 0 {
		sc.Timeout = 3 * time.Minute
	}
	logf := sc.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	cluster, err := StartCluster(ClusterConfig{Workers: sc.Workers, Logf: sc.Logf})
	if err != nil {
		return nil, err
	}
	defer cluster.Stop()
	rep := &Report{Dir: cluster.Config.Dir}
	keepDir := true
	defer func() {
		if !keepDir && !sc.KeepDir {
			os.RemoveAll(cluster.Config.Dir)
			rep.Dir = ""
		}
	}()

	client := &http.Client{Timeout: 30 * time.Second}
	deadline := time.Now().Add(sc.Timeout)

	// 1. Submit the sweep as an async job.
	body, err := json.Marshal(map[string]any{"kind": "sweep", "sweep": sc.Sweep})
	if err != nil {
		return rep, err
	}
	resp, err := client.Post(cluster.CoordURL()+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return rep, fmt.Errorf("submit: %w", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return rep, fmt.Errorf("submit: status %d: %s", resp.StatusCode, raw)
	}
	var sub struct {
		JobID   string `json:"jobId"`
		TraceID string `json:"traceId"`
	}
	if err := json.Unmarshal(raw, &sub); err != nil || sub.JobID == "" {
		return rep, fmt.Errorf("submit: bad body %q", raw)
	}
	rep.JobID = sub.JobID
	start := time.Now()
	logf("chaostest: job %s submitted", sub.JobID)

	// 2–4. Poll the job, injecting the failures at unit thresholds so
	// they land strictly mid-run. Transport errors while the
	// coordinator is down are expected and retried.
	victim := rand.New(rand.NewSource(sc.Seed)).Intn(sc.Workers)
	rep.KilledWorker = victim
	killedWorker, restarted := false, false
	var result json.RawMessage
	for {
		if time.Now().After(deadline) {
			return rep, fmt.Errorf("job %s not terminal after %v (worker killed: %v, coordinator restarted: %v)",
				sub.JobID, sc.Timeout, killedWorker, restarted)
		}
		time.Sleep(50 * time.Millisecond)
		rep.Polls++
		st, err := client.Get(cluster.CoordURL() + "/v1/jobs/" + sub.JobID)
		if err != nil {
			rep.Reconnects++
			continue
		}
		raw, _ := io.ReadAll(st.Body)
		st.Body.Close()
		if st.StatusCode != http.StatusOK {
			rep.Reconnects++
			continue
		}
		var view struct {
			State      string          `json:"state"`
			Error      string          `json:"error"`
			UnitsDone  int             `json:"unitsDone"`
			UnitsTotal int             `json:"unitsTotal"`
			Result     json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(raw, &view); err != nil {
			return rep, fmt.Errorf("poll: bad body %q", raw)
		}
		rep.UnitsTotal = view.UnitsTotal

		if !killedWorker && view.UnitsDone >= 1 {
			cluster.KillWorker(victim)
			killedWorker = true
			logf("chaostest: killed worker%d at %d/%d units", victim, view.UnitsDone, view.UnitsTotal)
		}
		if killedWorker && !restarted && view.UnitsDone >= view.UnitsTotal/3 && view.UnitsDone < view.UnitsTotal {
			// Kill first, poll the dead coordinator, then restart: the
			// poll is guaranteed to land inside the outage window, so the
			// scenario always exercises the reconnect path a polling
			// client (loadgen -jobs) must survive.
			cluster.KillCoordinator()
			rep.Polls++
			if st, err := client.Get(cluster.CoordURL() + "/v1/jobs/" + sub.JobID); err != nil {
				rep.Reconnects++
			} else {
				io.Copy(io.Discard, st.Body)
				st.Body.Close()
				return rep, fmt.Errorf("poll of the killed coordinator answered with status %d", st.StatusCode)
			}
			if err := cluster.StartCoordinator(); err != nil {
				return rep, fmt.Errorf("coordinator restart: %w", err)
			}
			restarted = true
			logf("chaostest: coordinator kill-restarted at %d/%d units", view.UnitsDone, view.UnitsTotal)
		}

		switch view.State {
		case "done":
			if !killedWorker || !restarted {
				return rep, fmt.Errorf("job finished before chaos landed (worker killed: %v, coordinator restarted: %v) — enlarge the sweep spec",
					killedWorker, restarted)
			}
			rep.Elapsed = time.Since(start)
			result = view.Result
		case "failed", "cancelled":
			return rep, fmt.Errorf("job %s: state %s: %s", sub.JobID, view.State, view.Error)
		default:
			continue
		}
		break
	}
	logf("chaostest: job done in %v (%d polls, %d reconnects)", rep.Elapsed, rep.Polls, rep.Reconnects)

	// 5. Reference: the same sweep, synchronously, on a worker that
	// was never touched — a pure single-process exp.RunSweepCtx run.
	survivor := cluster.WorkerProcs[(victim+1)%sc.Workers]
	if survivor == nil {
		return rep, fmt.Errorf("no surviving worker for the reference run")
	}
	specBody, _ := json.Marshal(sc.Sweep)
	refResp, err := client.Post(survivor.URL+"/v1/sweep", "application/json", bytes.NewReader(specBody))
	if err != nil {
		return rep, fmt.Errorf("reference sweep: %w", err)
	}
	refRaw, _ := io.ReadAll(refResp.Body)
	refResp.Body.Close()
	if refResp.StatusCode != http.StatusOK {
		return rep, fmt.Errorf("reference sweep: status %d: %s", refResp.StatusCode, refRaw)
	}
	got, err := normalizeResponse(result)
	if err != nil {
		return rep, fmt.Errorf("normalizing job result: %w", err)
	}
	want, err := normalizeResponse(refRaw)
	if err != nil {
		return rep, fmt.Errorf("normalizing reference: %w", err)
	}
	rep.Identical = bytes.Equal(got, want)
	rep.ResultBytes = len(got)
	if !rep.Identical {
		return rep, fmt.Errorf("merged result differs from the undisturbed run (%d vs %d normalized bytes; logs in %s)",
			len(got), len(want), cluster.Config.Dir)
	}

	// 6. Journal durability: compaction must have produced a snapshot
	// and bounded the tail.
	stats, err := fetchClusterStats(client, cluster.CoordURL())
	if err != nil {
		return rep, err
	}
	rep.TailRecords = stats.Journal.TailRecords
	rep.SnapshotBytes = stats.Journal.SnapshotBytes
	rep.Dispatched = stats.Coordinator.Dispatched
	rep.Requeued = stats.Coordinator.Requeued
	rep.Stolen = stats.Coordinator.Stolen
	rep.Duplicates = stats.Coordinator.LateDuplicates + stats.LateShards
	if rep.SnapshotBytes <= 0 {
		return rep, fmt.Errorf("journal was never compacted (snapshotBytes %d)", rep.SnapshotBytes)
	}
	if rep.TailRecords > cluster.Config.SnapshotEvery {
		return rep, fmt.Errorf("journal tail %d records exceeds the snapshot-every bound %d",
			rep.TailRecords, cluster.Config.SnapshotEvery)
	}
	if _, err := os.Stat(cluster.SnapshotPath()); err != nil {
		return rep, fmt.Errorf("snapshot file: %w", err)
	}

	// 7. Cluster-wide tracing: the restarted coordinator re-ran the job
	// under the same content-addressed trace id, so its ring must hold a
	// stitched trace whose Chrome export shows the coordinator lane plus
	// one lane per surviving worker that served a shard.
	if sub.TraceID == "" {
		return rep, fmt.Errorf("submit response carried no traceId")
	}
	tr, err := fetchStitchedTrace(client, cluster.CoordURL(), sub.TraceID)
	if err != nil {
		return rep, err
	}
	rep.TraceSpans = tr.spans
	rep.TraceWorkerPids = len(tr.lanes)
	if !tr.coordSeen {
		return rep, fmt.Errorf("stitched trace %s has no coordinator (pid 0) spans", sub.TraceID)
	}
	if len(tr.credited) == 0 {
		return rep, fmt.Errorf("stitched trace %s: the restarted coordinator completed no remote shard", sub.TraceID)
	}
	if !maps.Equal(tr.lanes, tr.credited) {
		return rep, fmt.Errorf("stitched trace %s attributes spans to worker processes %v, but the coordinator's shard spans credit %v with a completed shard",
			sub.TraceID, sortedKeys(tr.lanes), sortedKeys(tr.credited))
	}
	logf("chaostest: stitched trace %s: %d spans across coordinator + %d workers", sub.TraceID, tr.spans, len(tr.lanes))
	keepDir = false
	return rep, nil
}

// stitchedTrace is what the chaos contract reads off the Chrome export
// of a job trace.
type stitchedTrace struct {
	spans     int  // complete ("X") span events
	coordSeen bool // pid 0 (the coordinator) contributed spans
	// lanes is the worker processes (by advertised URL, the lane's
	// process_name) that own at least one span.
	lanes map[string]bool
	// credited is the workers named by a coordinator "shard" span that
	// ended without an error: the coordinator's own record of who
	// completed a shard for it.
	credited map[string]bool
}

// fetchStitchedTrace pulls the Chrome export of one trace and reduces
// it to a stitchedTrace.
func fetchStitchedTrace(client *http.Client, baseURL, traceID string) (*stitchedTrace, error) {
	resp, err := client.Get(baseURL + "/v1/traces/" + traceID + "?format=chrome")
	if err != nil {
		return nil, fmt.Errorf("trace fetch: %w", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("trace fetch: status %d: %s", resp.StatusCode, raw)
	}
	return parseStitchedTrace(raw)
}

func parseStitchedTrace(raw []byte) (*stitchedTrace, error) {
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			PID  int    `json:"pid"`
			Args struct {
				Name   string  `json:"name"`   // process_name metadata
				Worker string  `json:"worker"` // coordinator shard spans
				Error  *string `json:"error"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("trace fetch: bad body: %w", err)
	}
	tr := &stitchedTrace{lanes: map[string]bool{}, credited: map[string]bool{}}
	procName := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procName[ev.PID] = ev.Args.Name
		}
	}
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Ph != "X":
			continue
		case ev.PID != 0:
			tr.lanes[procName[ev.PID]] = true
		case ev.Name == "shard" && ev.Args.Worker != "" && ev.Args.Error == nil:
			tr.credited[ev.Args.Worker] = true
		}
		tr.spans++
		tr.coordSeen = tr.coordSeen || ev.PID == 0
	}
	return tr, nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// normalizeResponse strips the request-scoped requestId from a sweep
// response and re-marshals it with sorted keys, so a job result and a
// synchronous /v1/sweep body can be compared byte for byte. Both sides
// round-trip through the same map encoding, so any difference left is
// a real difference in the merged data.
func normalizeResponse(raw []byte) ([]byte, error) {
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	delete(m, "requestId")
	return json.Marshal(m)
}

// clusterStats mirrors the "cluster" entry of GET /metrics.
type clusterStats struct {
	Coordinator struct {
		Dispatched     int64 `json:"dispatched"`
		Requeued       int64 `json:"requeued"`
		Stolen         int64 `json:"stolen"`
		LateDuplicates int64 `json:"lateDuplicates"`
	} `json:"coordinator"`
	LateShards int64 `json:"lateShards"`
	Journal    struct {
		TailRecords   int   `json:"tailRecords"`
		SnapshotBytes int64 `json:"snapshotBytes"`
	} `json:"journal"`
}

// fetchClusterStats reads the coordinator's /metrics JSON and decodes
// its cluster section.
func fetchClusterStats(client *http.Client, baseURL string) (*clusterStats, error) {
	resp, err := client.Get(baseURL + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var root struct {
		Cluster clusterStats `json:"cluster"`
	}
	if err := json.Unmarshal(raw, &root); err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	return &root.Cluster, nil
}
