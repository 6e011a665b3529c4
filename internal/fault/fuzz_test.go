package fault

import (
	"bytes"
	"encoding/json"
	"testing"

	"budgetwf/internal/reqerr"
)

// FuzzSpecJSON drives the strict decode every request body goes
// through (a fault spec arrives as the "faults" object of a daemon
// request or a job spec) with arbitrary bytes: it must never panic,
// any spec it accepts must survive a marshal→decode round trip with an
// identical validation verdict, and an unknown field added to an
// accepted spec must be rejected.
func FuzzSpecJSON(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"crashRatePerHour":[0.1,0.2,0.3],"seed":42}`))
	f.Add([]byte(`{"bootFailProb":0.05,"taskFailProb":0.01,"recovery":"replicate"}`))
	f.Add([]byte(`{"crashRatePerHour":[1e308],"maxRetries":64,"rebootBackoffSec":5,"maxBackoffSec":60}`))
	f.Add([]byte(`{"recovery":"resubmit-fastest","maxRetries":-3}`))
	f.Add([]byte(`{"crashRatePerHour":[]}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if reqerr.DecodeStrict(bytes.NewReader(data), &s) != nil {
			return
		}
		verdict := s.Validate(3)
		out, err := json.Marshal(&s)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v (%+v)", err, s)
		}
		var s2 Spec
		if err := reqerr.DecodeStrict(bytes.NewReader(out), &s2); err != nil {
			t.Fatalf("round trip rejected: %v (%s)", err, out)
		}
		verdict2 := s2.Validate(3)
		if (verdict == nil) != (verdict2 == nil) {
			t.Fatalf("validation verdict changed across round trip: %v vs %v (%s)", verdict, verdict2, out)
		}
		if s.IsZero() != s2.IsZero() {
			t.Fatalf("IsZero changed across round trip (%s)", out)
		}
		if verdict == nil {
			// A valid spec must build a model without panicking.
			_ = s.NewInjection()
		}
		unknown := append([]byte(`{"noSuchField":1,`), out[1:]...)
		if len(out) == 2 {
			unknown = []byte(`{"noSuchField":1}`)
		}
		if reqerr.DecodeStrict(bytes.NewReader(unknown), new(Spec)) == nil {
			t.Fatalf("unknown field accepted (%s)", unknown)
		}
	})
}
