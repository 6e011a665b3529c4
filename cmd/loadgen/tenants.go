package main

import (
	"fmt"
	"io"
	"math/rand"
)

// runTenants is the -tenants mode: submission i goes to POST
// /v1/submit as tenant i mod tenants, and the tenant ledgers from GET
// /v1/tenants close the report.
func runTenants(stdout io.Writer, baseURL string, total, conc, tenants, size int, alg string, p retryPolicy) error {
	// Distinct workflows per request: the pool path plans every arrival
	// against the live pool snapshot (never the plan cache), so there
	// is nothing to gain from repeats — vary the instances instead.
	bodies := make([][]byte, total)
	for i := range bodies {
		body, err := workflowBody(2000+i, size, map[string]any{
			"tenant":    map[string]any{"id": fmt.Sprintf("tenant-%d", i%tenants)},
			"algorithm": alg,
			"budget":    100.0,
		})
		if err != nil {
			return err
		}
		bodies[i] = body
	}
	// What each answer says the shared pool did for it; fair-share
	// admission 429s (tenant VM or queue cap) are retried under p.
	type lease struct {
		ReusedVMs     int     `json:"reusedVMs"`
		SavedInitCost float64 `json:"savedInitCost"`
		Charged       float64 `json:"charged"`
	}
	leases := make([]lease, total)
	outs, wall := drive(total, conc, func(i int, rnd *rand.Rand) outcome {
		return post(baseURL+"/v1/submit", bodies[i], p, rnd, &leases[i])
	})
	var sum lease
	for _, l := range leases {
		sum.ReusedVMs += l.ReusedVMs
		sum.SavedInitCost += l.SavedInitCost
		sum.Charged += l.Charged
	}
	mix := report(stdout, fmt.Sprintf("loadgen -tenants: %d submissions across %d tenants, concurrency %d, %.2fs wall",
		total, tenants, conc, wall.Seconds()), "latency", outs,
		fmt.Sprintf("VMs leased across tenants: %d (saved %.4f in provisioning cost)", sum.ReusedVMs, sum.SavedInitCost),
		fmt.Sprintf("total charged: %.4f", sum.Charged), retries429(outs))

	// The server-side ledgers are the ground truth: print each tenant's
	// billing line so the run doubles as a shared-pool demo.
	printTenantLedgers(stdout, baseURL)
	if s5 := mix["status 500"]; s5 > 0 {
		return fmt.Errorf("%d submissions returned 500", s5)
	}
	return nil
}

// printTenantLedgers renders GET /v1/tenants as one line per tenant,
// or a note saying why it could not.
func printTenantLedgers(stdout io.Writer, baseURL string) {
	var view struct {
		Tenants []struct {
			ID            string  `json:"id"`
			Submissions   int     `json:"submissions"`
			Completed     int     `json:"completed"`
			Rejected      int     `json:"rejected"`
			Billed        float64 `json:"billed"`
			ReusedVMs     int     `json:"reusedVMs"`
			SavedInitCost float64 `json:"savedInitCost"`
		} `json:"tenants"`
		Pool struct {
			BilledTotal   float64 `json:"billedTotal"`
			Reused        int     `json:"reused"`
			SavedInitCost float64 `json:"savedInitCost"`
		} `json:"pool"`
	}
	if _, err := get(baseURL+"/v1/tenants", &view); err != nil {
		fmt.Fprintf(stdout, "  (ledger fetch failed: %v)\n", err)
		return
	}
	fmt.Fprintf(stdout, "  tenant ledgers (server-side):\n")
	for _, t := range view.Tenants {
		fmt.Fprintf(stdout, "    %-12s submitted=%d completed=%d rejected=%d billed=%.4f reusedVMs=%d savedInit=%.4f\n",
			t.ID, t.Submissions, t.Completed, t.Rejected, t.Billed, t.ReusedVMs, t.SavedInitCost)
	}
	fmt.Fprintf(stdout, "    pool total: billed=%.4f reusedVMs=%d savedInit=%.4f\n",
		view.Pool.BilledTotal, view.Pool.Reused, view.Pool.SavedInitCost)
}
