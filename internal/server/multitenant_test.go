package server

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"
)

// poolTestServer builds a Server with the shared pool enabled.
func poolTestServer(t *testing.T) *Server {
	t.Helper()
	return newTestServer(t, Config{
		EnablePool:         true,
		PoolBillingQuantum: 3600,
		PoolTimeToShutdown: 360,
	})
}

// submitBody builds a /v1/submit request body.
func submitBody(t *testing.T, tenant map[string]any, wfJSON json.RawMessage, alg string, budget float64) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"tenant":    tenant,
		"workflow":  wfJSON,
		"algorithm": alg,
		"budget":    budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSubmitDisabledByDefault: without EnablePool the multi-tenant
// surface is not mounted at all.
func TestSubmitDisabledByDefault(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	status, _, _ := post(t, ts, "/v1/submit", submitBody(t, map[string]any{"id": "a"}, workflowJSON(t, 12, 1), "heft", 0))
	if status != 404 {
		t.Fatalf("submit on pool-less server: status %d, want 404", status)
	}
	if status, _ := get(t, ts, "/v1/tenants"); status != 404 {
		t.Fatalf("tenants on pool-less server: status %d, want 404", status)
	}
}

// TestSubmitTwoTenants is the end-to-end happy path: two tenants
// submit back to back, both settle, the second reuses the first's
// still-paid VMs, and the ledgers/metrics reflect all of it.
func TestSubmitTwoTenants(t *testing.T) {
	s := poolTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	hits0, miss0 := s.metrics.reg.Value("budgetwfd_cache_hits_total", ""), s.metrics.reg.Value("budgetwfd_cache_misses_total", "")

	var first, second submitResponse
	status, body, _ := post(t, ts, "/v1/submit", submitBody(t, map[string]any{"id": "alice"}, workflowJSON(t, 12, 1), "heftbudg", 5))
	if status != 200 {
		t.Fatalf("first submit: status %d body %s", status, body)
	}
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}
	status, body, _ = post(t, ts, "/v1/submit", submitBody(t, map[string]any{"id": "bob"}, workflowJSON(t, 12, 2), "heftbudg", 5))
	if status != 200 {
		t.Fatalf("second submit: status %d body %s", status, body)
	}
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	for _, r := range []submitResponse{first, second} {
		if r.State != "done" || r.Report == nil || !r.Report.Completed || r.Charged <= 0 {
			t.Fatalf("submission did not settle cleanly: %+v", r)
		}
	}
	if second.ReusedVMs == 0 || second.SavedInitCost <= 0 {
		t.Fatalf("second tenant should have leased alice's paid VMs: %+v", second)
	}

	// The pool path never touches the plan cache: a cached plan's
	// estimates assume a private pool, not whatever VMs happen to be
	// idle at this arrival.
	if s.metrics.reg.Value("budgetwfd_cache_hits_total", "") != hits0 || s.metrics.reg.Value("budgetwfd_cache_misses_total", "") != miss0 {
		t.Fatalf("submit moved plan-cache counters: hits %v→%v, misses %v→%v",
			hits0, s.metrics.reg.Value("budgetwfd_cache_hits_total", ""), miss0, s.metrics.reg.Value("budgetwfd_cache_misses_total", ""))
	}

	// Ledgers: both tenants listed, each billed what its outcome said.
	status, body = get(t, ts, "/v1/tenants")
	if status != 200 {
		t.Fatalf("tenants: status %d", status)
	}
	var tl struct {
		Tenants []struct {
			ID        string  `json:"id"`
			Billed    float64 `json:"billed"`
			Completed int     `json:"completed"`
			ReusedVMs int     `json:"reusedVMs"`
		} `json:"tenants"`
		Pool struct {
			Reused      int     `json:"reused"`
			BilledTotal float64 `json:"billedTotal"`
		} `json:"pool"`
	}
	if err := json.Unmarshal(body, &tl); err != nil {
		t.Fatal(err)
	}
	if len(tl.Tenants) != 2 || tl.Tenants[0].ID != "alice" || tl.Tenants[1].ID != "bob" {
		t.Fatalf("tenant list: %s", body)
	}
	if tl.Tenants[0].Billed != first.Charged || tl.Tenants[1].Billed != second.Charged {
		t.Fatalf("ledger disagrees with outcomes: %s", body)
	}
	if tl.Pool.Reused == 0 {
		t.Fatalf("pool stats show no reuse: %s", body)
	}

	status, body = get(t, ts, "/v1/tenants/alice")
	if status != 200 || !strings.Contains(string(body), `"id":"alice"`) {
		t.Fatalf("tenant get: status %d body %s", status, body)
	}
	if status, _ := get(t, ts, "/v1/tenants/nobody"); status != 404 {
		t.Fatalf("unknown tenant: status %d, want 404", status)
	}

	// Prometheus exposition carries the per-tenant billing counters and
	// the shared-pool families.
	status, body = get(t, ts, "/metrics?format=prometheus")
	if status != 200 {
		t.Fatalf("metrics: status %d", status)
	}
	text := string(body)
	for _, want := range []string{
		`budgetwfd_tenant_billed{tenant="alice"}`,
		`budgetwfd_tenant_billed{tenant="bob"}`,
		`budgetwfd_tenant_submissions_total{tenant="alice"} 1`,
		"budgetwfd_shared_pool_reused_total",
		"budgetwfd_shared_pool_submissions_total 2",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}

	// The expvar JSON carries the same ledgers.
	status, body = get(t, ts, "/metrics")
	if status != 200 || !strings.Contains(string(body), `"sharedPool"`) || !strings.Contains(string(body), `"tenants"`) {
		t.Fatalf("expvar metrics missing pool sections: status %d body %.200s", status, body)
	}
}

// TestSubmitValidation pins the 400/422/429 taxonomy on /v1/submit.
func TestSubmitValidation(t *testing.T) {
	s := poolTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	wf := workflowJSON(t, 12, 3)

	t.Run("negative budget is 400", func(t *testing.T) {
		status, body, _ := post(t, ts, "/v1/submit", submitBody(t, map[string]any{"id": "a"}, wf, "heft", -1))
		if status != 400 || !strings.Contains(string(body), "budget") {
			t.Fatalf("status %d body %s", status, body)
		}
	})
	t.Run("negative tenant cap is 400", func(t *testing.T) {
		status, body, _ := post(t, ts, "/v1/submit", submitBody(t, map[string]any{"id": "a", "maxVMs": -2}, wf, "heft", 0))
		if status != 400 || !strings.Contains(string(body), "tenant.maxVMs") {
			t.Fatalf("status %d body %s", status, body)
		}
	})
	t.Run("missing tenant id is 400", func(t *testing.T) {
		status, body, _ := post(t, ts, "/v1/submit", submitBody(t, map[string]any{}, wf, "heft", 0))
		if status != 400 || !strings.Contains(string(body), "tenant.id") {
			t.Fatalf("status %d body %s", status, body)
		}
	})
	t.Run("unknown algorithm is 422", func(t *testing.T) {
		status, body, _ := post(t, ts, "/v1/submit", submitBody(t, map[string]any{"id": "a"}, wf, "zigzag", 0))
		if status != 422 {
			t.Fatalf("status %d body %s", status, body)
		}
	})
	t.Run("unknown field is 400", func(t *testing.T) {
		status, _, _ := post(t, ts, "/v1/submit", []byte(`{"tenant":{"id":"a"},"bogus":1}`))
		if status != 400 {
			t.Fatalf("status %d", status)
		}
	})
	t.Run("conflicting tenant re-registration is 422", func(t *testing.T) {
		status, body, _ := post(t, ts, "/v1/submit", submitBody(t, map[string]any{"id": "c", "maxVMs": 4}, wf, "heft", 0))
		if status != 200 {
			t.Fatalf("register: status %d body %s", status, body)
		}
		status, body, _ = post(t, ts, "/v1/submit", submitBody(t, map[string]any{"id": "c", "maxVMs": 9}, wf, "heft", 0))
		if status != 422 || !strings.Contains(string(body), "already registered") {
			t.Fatalf("status %d body %s", status, body)
		}
	})
	t.Run("exhausted tenant budget is 429 with Retry-After", func(t *testing.T) {
		tiny := map[string]any{"id": "broke", "budget": 1e-9}
		status, body, _ := post(t, ts, "/v1/submit", submitBody(t, tiny, wf, "heft", 0))
		if status != 200 {
			t.Fatalf("first spend: status %d body %s", status, body)
		}
		status, body, hdr := post(t, ts, "/v1/submit", submitBody(t, tiny, wf, "heft", 0))
		if status != 429 || !strings.Contains(string(body), "budget exhausted") {
			t.Fatalf("status %d body %s", status, body)
		}
		if hdr.Get("Retry-After") == "" {
			t.Fatal("429 without Retry-After")
		}
	})
}
