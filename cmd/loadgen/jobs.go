package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"
)

// runJobs is the -jobs mode: submission i posts a sweep job and polls
// it to a terminal state. Transport errors and transient statuses on
// submit or poll (the coordinator restarting mid-run) are retried until
// -job-timeout and counted as reconnects, never as failures: a
// journal-backed coordinator restores the job on restart, so the same
// job id resolves once it is back.
func runJobs(stdout io.Writer, baseURL string, total, conc, distinct, size int, retryCap, jobTimeout time.Duration) error {
	// What a submission folds beyond its outcome.
	type job struct {
		deduped bool
		traceID string
		polls   int
		err     error
	}
	jobs := make([]job, total)
	outs, wall := drive(total, conc, func(i int, rnd *rand.Rand) outcome {
		// A deliberately small sweep so the run is about the job
		// machinery, not the experiment; the seed cycles through
		// -distinct values so repeats hit the dedupe path.
		body, _ := json.Marshal(map[string]any{
			"kind": "sweep",
			"sweep": map[string]any{
				"workflowType": "montage",
				"n":            size,
				"gridK":        2,
				"instances":    1,
				"replications": 2,
				"seed":         1000 + i%distinct,
			},
		})
		t0 := time.Now()
		p := retryPolicy{cap: retryCap, deadline: t0.Add(jobTimeout)}
		status, raw, retried, err := send(baseURL+"/v1/jobs", body, p, rnd)
		o := outcome{retried: retried}
		var sub struct {
			JobID   string `json:"jobId"`
			Deduped bool   `json:"deduped"`
			TraceID string `json:"traceId"`
		}
		switch {
		case err != nil:
			jobs[i].err = fmt.Errorf("submit: coordinator unreachable for %v: %v", jobTimeout, err)
		case status != http.StatusAccepted || json.Unmarshal(raw, &sub) != nil || sub.JobID == "":
			jobs[i].err = fmt.Errorf("submit: status %d: %q", status, raw)
		default:
			jobs[i].deduped, jobs[i].traceID = sub.Deduped, sub.TraceID
			var reconnects int
			o.class, jobs[i].polls, reconnects, err = await(baseURL+"/v1/jobs/"+sub.JobID, p, rnd)
			o.retried += reconnects
			if o.class == "timeout" {
				err = fmt.Errorf("not terminal after %v", jobTimeout)
			}
			if err != nil {
				jobs[i].err = fmt.Errorf("job %s: %v", sub.JobID, err)
			}
			if o.class == "done" {
				o.latency = time.Since(t0)
			}
		}
		return o
	})

	deduped, polls, reconnects := 0, 0, 0
	var errs []error
	for i, j := range jobs {
		if j.deduped {
			deduped++
		}
		polls += j.polls
		reconnects += outs[i].retried
		if j.err != nil {
			errs = append(errs, j.err)
		}
	}
	report(stdout, fmt.Sprintf("loadgen -jobs: %d submissions, concurrency %d, %d distinct specs, %.2fs wall",
		total, conc, distinct, wall.Seconds()), "job e2e latency", outs,
		fmt.Sprintf("deduped submissions: %d", deduped),
		fmt.Sprintf("polls: %d total", polls),
		fmt.Sprintf("reconnects (transport errors / 5xx retried): %d", reconnects))
	// Per-phase latency from one sampled done job's stitched trace.
	for i, o := range outs {
		if o.class == "done" && jobs[i].traceID != "" {
			reportJobPhases(stdout, baseURL, jobs[i].traceID)
			break
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("%d jobs errored, first: %v", len(errs), errs[0])
	}
	return nil
}

// await polls the job at url until it is terminal or p's deadline
// passes (state "timeout"), with the same backoff schedule used for
// 429s: no Retry-After hint, so 100ms doubling to the cap, jittered.
// Transport errors and transientStatus answers are reconnects; any
// other failed poll — a 404 for a job evicted or lost in a restart
// without a journal, a 500 — fails the job at once. A job that ended
// failed reports its own error.
func await(url string, p retryPolicy, rnd *rand.Rand) (state string, polls, reconnects int, err error) {
	for ; ; polls++ {
		if time.Now().After(p.deadline) {
			return "timeout", polls, reconnects, nil
		}
		time.Sleep(retryDelay("", polls, p.cap, rnd, time.Now()))
		var view struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		status, err := get(url, &view)
		if err != nil && (status == 0 || transientStatus(status)) {
			reconnects++
			continue
		}
		if err != nil {
			return "", polls + 1, reconnects, fmt.Errorf("poll: %v", err)
		}
		switch view.State {
		case "done", "failed", "cancelled":
			if view.Error != "" {
				return view.State, polls + 1, reconnects, errors.New(view.Error)
			}
			return view.State, polls + 1, reconnects, nil
		}
	}
}
