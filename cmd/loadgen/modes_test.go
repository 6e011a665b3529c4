package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeCoordinator answers /v1/jobs like a coordinator that is
// restarting: the first submit is a 503, and each job's first poll is
// a 503 before it reports running and then done. A spec whose seed was
// seen before is answered with the same job id and deduped: true.
func fakeCoordinator(t *testing.T) *httptest.Server {
	t.Helper()
	var mu sync.Mutex
	submits := 0
	ids := map[float64]string{} // spec seed → job id
	polls := map[string]int{}   // job id → polls answered
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			submits++
			if submits == 1 {
				w.Header().Set("Retry-After", "0")
				w.WriteHeader(http.StatusServiceUnavailable)
				return
			}
			var spec struct {
				Sweep struct {
					Seed float64 `json:"seed"`
				} `json:"sweep"`
			}
			if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
				t.Errorf("submit body: %v", err)
			}
			id, deduped := ids[spec.Sweep.Seed]
			if !deduped {
				id = fmt.Sprintf("job-%d", len(ids))
				ids[spec.Sweep.Seed] = id
			}
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(map[string]any{"jobId": id, "deduped": deduped})
		case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
			id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
			polls[id]++
			switch polls[id] {
			case 1:
				w.WriteHeader(http.StatusServiceUnavailable)
			case 2:
				w.Write([]byte(`{"state":"running"}`))
			default:
				w.Write([]byte(`{"state":"done"}`))
			}
		default:
			http.NotFound(w, r)
		}
	}))
}

// TestRunJobs drives -jobs against a coordinator that answers 503s on
// submit and poll: they are retried as reconnects, every job reaches
// done, and the repeated spec is counted as deduped.
func TestRunJobs(t *testing.T) {
	t.Run("restarting-coordinator", func(t *testing.T) {
		srv := fakeCoordinator(t)
		defer srv.Close()
		var out strings.Builder
		err := run([]string{"-url", srv.URL, "-jobs", "-n", "3", "-c", "2", "-distinct", "2",
			"-retry-cap", "20ms", "-job-timeout", "30s"}, &out)
		if err != nil {
			t.Fatalf("%v\n%s", err, out.String())
		}
		for _, want := range []string{"done: 3", "deduped submissions: 1"} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("output missing %q:\n%s", want, out.String())
			}
		}
		if !regexp.MustCompile(`reconnects \(transport errors / 5xx retried\): [1-9]`).MatchString(out.String()) {
			t.Errorf("want a non-zero reconnects line:\n%s", out.String())
		}
	})
	// A coordinator that never admits the submit: past -job-timeout the
	// error names the last status it answered, not a nil transport error.
	t.Run("submit-deadline-names-status", func(t *testing.T) {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
		}))
		defer srv.Close()
		var out strings.Builder
		err := run([]string{"-url", srv.URL, "-jobs", "-n", "1", "-c", "1",
			"-retry-cap", "20ms", "-job-timeout", "100ms"}, &out)
		if err == nil || !strings.Contains(err.Error(), "503") || strings.Contains(err.Error(), "<nil>") {
			t.Fatalf("err = %v, want the last status 503 named", err)
		}
	})
}

// TestRunJobsFailsFastOnDeadJob: a poll answered 404 (the job was
// evicted, or the coordinator restarted without a journal) fails that
// job at once instead of polling it until -job-timeout.
func TestRunJobsFailsFastOnDeadJob(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusAccepted)
			w.Write([]byte(`{"jobId":"job-0"}`))
			return
		}
		w.WriteHeader(http.StatusNotFound)
		w.Write([]byte(`{"error":"no such job"}`))
	}))
	defer srv.Close()

	var out strings.Builder
	t0 := time.Now()
	err := run([]string{"-url", srv.URL, "-jobs", "-n", "1", "-c", "1",
		"-retry-cap", "20ms", "-job-timeout", "30s"}, &out)
	if took := time.Since(t0); took > time.Second {
		t.Errorf("run took %v polling a dead job, want under 1s", took)
	}
	if err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("err = %v, want one naming the 404", err)
	}
}

// TestRunTenants drives -tenants against a pool daemon whose first
// submission is a 429: it is retried, every submission ends in a 200,
// and the leases and the server-side ledgers are reported.
func TestRunTenants(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/submit":
			if calls.Add(1) == 1 {
				w.Header().Set("Retry-After", "0")
				w.WriteHeader(http.StatusTooManyRequests)
				return
			}
			w.Write([]byte(`{"state":"done","reusedVMs":1,"savedInitCost":0.5,"charged":0.25}`))
		case "/v1/tenants":
			w.Write([]byte(`{"tenants":[{"id":"tenant-0","submissions":2,"completed":2,"billed":0.5}],
				"pool":{"billedTotal":0.5,"reused":4,"savedInitCost":2}}`))
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	var out strings.Builder
	err := run([]string{"-url", srv.URL, "-tenants", "2", "-n", "4", "-c", "2",
		"-size", "12", "-retry-cap", "20ms"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"status 200: 4",
		"VMs leased across tenants: 4 (saved 2.0000 in provisioning cost)",
		"total charged: 1.0000",
		"429 retries: 1 across 1 requests",
		"tenant ledgers (server-side):",
		"pool total: billed=0.5000 reusedVMs=4 savedInit=2.0000",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}
