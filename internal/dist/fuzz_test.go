package dist

import (
	"bytes"
	"testing"

	"budgetwf/internal/reqerr"
)

// FuzzJobSpecJSON drives POST /v1/jobs' pipeline — strict decode,
// Normalize, Resolve — with arbitrary bytes. It must never panic;
// Normalize must be idempotent and leave Hash stable; and a spec that
// validates must resolve to a campaign with cells to run: what
// submission accepts, the run can start.
func FuzzJobSpecJSON(f *testing.F) {
	f.Add([]byte(`{"kind":"sweep","sweep":{"workflowType":"chain","n":8,"algorithms":["heft"],"gridK":3,"instances":2,"replications":5,"seed":42}}`))
	f.Add([]byte(`{"kind":"sweep","sweep":{"workflowType":"montage","n":20,"estimator":"analytic","platform":{"Categories":[{"Name":"c","Speed":1e9,"CostPerSec":1e-6}],"Bandwidth":1e8,"DCBandwidth":1e9}}}`))
	f.Add([]byte(`{"kind":"sweep","sweep":{"workflowType":"ligo","n":30,"market":{"providers":[{"name":"a","categories":[{"name":"s","speed":1e9,"costPerSec":6e-6,"spot":{"discount":0.6,"revocationsPerHour":4}}]}],"home":"a"}}}`))
	f.Add([]byte(`{"kind":"faultSweep","faultSweep":{"workflowType":"ligo","n":30,"rates":[0.5,0.1],"faults":{"bootFailProb":0.02,"recovery":"replicate"}}}`))
	f.Add([]byte(`{"kind":"faultSweep","faultSweep":{"workflowType":"chain","n":6,"rates":[-1],"budgetFactor":-1}}`))
	f.Add([]byte(`{"kind":"figure","figure":{"figure":3,"n":12,"estimator":"analytic"}}`))
	f.Add([]byte(`{"kind":"figure","sweep":{"workflowType":"chain","n":6}}`))
	f.Add([]byte(`{"kind":"sweep"}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if reqerr.DecodeStrict(bytes.NewReader(data), &spec) != nil {
			return
		}
		spec.Normalize()
		hash := spec.Hash()
		spec.Normalize()
		if again := spec.Hash(); again != hash {
			t.Fatalf("Normalize is not idempotent: hash %s, then %s (%s)", hash, again, data)
		}
		camp, err := spec.Resolve()
		if err != nil {
			return
		}
		if camp.Cells() < 1 {
			t.Fatalf("validated spec resolves to a campaign of %d cells (%s)", camp.Cells(), data)
		}
	})
}
