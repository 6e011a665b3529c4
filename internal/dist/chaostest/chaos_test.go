package chaostest

import (
	"os/exec"
	"testing"
)

// TestChaosCluster is the automated survivable-crash property test: a
// real 3-process-worker cluster runs a fixed-seed sweep job while one
// seed-chosen worker is SIGKILLed and the coordinator is
// kill-restarted on its journal, both strictly mid-run. Run enforces
// the contract — the merged result must be byte-identical to an
// undisturbed single-process /v1/sweep, the restarted coordinator must
// resume the same job id, and the journal must have compacted to a
// snapshot plus a tail bounded by the snapshot-every threshold.
func TestChaosCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos cluster test compiles and boots real processes; skipped in -short")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}
	rep, err := Run(Scenario{
		Workers: 3,
		Seed:    1,
		Logf:    t.Logf,
	})
	if err != nil {
		if rep != nil && rep.Dir != "" {
			t.Logf("scratch dir preserved for post-mortem: %s", rep.Dir)
		}
		t.Fatal(err)
	}
	if !rep.Identical {
		t.Fatalf("merged result not byte-identical (job %s)", rep.JobID)
	}
	if rep.Reconnects == 0 {
		t.Errorf("expected polls to ride through the coordinator outage, saw 0 reconnects")
	}
	if rep.SnapshotBytes <= 0 || rep.TailRecords > 8 {
		t.Errorf("journal not compacted to snapshot+bounded tail: snapshot %dB, tail %d records",
			rep.SnapshotBytes, rep.TailRecords)
	}
	t.Logf("job %s: %d units in %v; worker%d killed, coordinator restarted, %d reconnects; "+
		"journal snapshot %dB + %d tail records; dispatched %d, requeued %d, stolen %d, duplicates %d",
		rep.JobID, rep.UnitsTotal, rep.Elapsed, rep.KilledWorker, rep.Reconnects,
		rep.SnapshotBytes, rep.TailRecords, rep.Dispatched, rep.Requeued, rep.Stolen, rep.Duplicates)
}

// TestParseStitchedTrace: worker lanes come from the process_name of
// pids that own spans; credit comes from the coordinator's shard spans
// that ended without an error, remote ones only.
func TestParseStitchedTrace(t *testing.T) {
	const doc = `{"traceEvents":[
	 {"name":"process_name","ph":"M","pid":0,"args":{"name":"coordinator"}},
	 {"name":"process_name","ph":"M","pid":1,"args":{"name":"http://w0"}},
	 {"name":"process_name","ph":"M","pid":2,"args":{"name":"http://w2"}},
	 {"name":"job","ph":"X","pid":0},
	 {"name":"shard","ph":"X","pid":0,"args":{"worker":"http://w0","start":0,"end":4}},
	 {"name":"compute","ph":"X","pid":1},
	 {"name":"shard","ph":"X","pid":0,"args":{"worker":"http://w1","error":"connection refused"}},
	 {"name":"shard","ph":"X","pid":0,"args":{"mode":"fallback"}},
	 {"name":"upgrade","ph":"i","pid":2}
	]}`
	tr, err := parseStitchedTrace([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if tr.spans != 5 || !tr.coordSeen {
		t.Errorf("spans = %d, coordSeen = %v; want 5, true", tr.spans, tr.coordSeen)
	}
	if got := sortedKeys(tr.lanes); len(got) != 1 || got[0] != "http://w0" {
		t.Errorf("lanes = %v, want [http://w0]", got)
	}
	if got := sortedKeys(tr.credited); len(got) != 1 || got[0] != "http://w0" {
		t.Errorf("credited = %v, want [http://w0]", got)
	}
}
