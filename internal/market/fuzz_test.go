package market

import (
	"bytes"
	"encoding/json"
	"testing"

	"budgetwf/internal/reqerr"
)

// FuzzMarketSpecJSON drives the market-spec path of every endpoint —
// strict decode, Validate, Compile — with arbitrary bytes. It must never
// panic; a spec that validates must compile to a platform that is itself
// valid (the planners and executors take it on trust); and the verdict
// must survive a marshal→parse round trip, as a spec does on its way
// from a job submission through the journal to a shard worker.
func FuzzMarketSpecJSON(f *testing.F) {
	f.Add([]byte(`{"providers":[{"name":"p","categories":[{"name":"c","speed":1e9,"costPerSec":1e-6}]}]}`))
	f.Add([]byte(`{"providers":[{"name":"alpha","bandwidth":2e8,"bootTimeSec":0,"categories":[
		{"name":"small","speed":1e9,"costPerSec":6.444e-6,"initCost":0.0001,"spot":{"discount":0.6,"revocationsPerHour":4}},
		{"name":"large","speed":4e9,"costPerSec":5.155e-5}]},
		{"name":"beta","categories":[{"name":"std","speed":2e9,"costPerSec":1.823e-5}]}],
		"transfer":[[{},{"costPerGB":0.02,"latencySec":0.5}],[{"costPerGB":0.02},{}]],
		"home":"beta","billingQuantumSec":3600,"dcCostPerSec":0,"transferCostPerByte":1e-12}`))
	f.Add([]byte(`{"providers":[{"name":"p","categories":[{"name":"c","speed":1e308,"costPerSec":1e308,"spot":{"discount":0.999999}}]}],"bandwidth":1e-300}`))
	f.Add([]byte(`{"providers":[{"name":"p","categories":[{"name":"c","speed":1,"costPerSec":1}]}],"home":"nowhere"}`))
	f.Add([]byte(`{"providers":[{"name":"p","categories":[]}],"transfer":[[]]}`))
	f.Add([]byte(`{"providers":[]}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s := new(Spec)
		if reqerr.DecodeStrict(bytes.NewReader(data), s) != nil {
			return
		}
		verdict := s.Validate()
		p, err := s.Compile()
		if (verdict == nil) != (err == nil) {
			t.Fatalf("Validate says %v, Compile says %v (%s)", verdict, err, data)
		}
		if err == nil {
			if err := p.Validate(); err != nil {
				t.Fatalf("compiled platform invalid: %v (%s)", err, data)
			}
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v (%s)", err, data)
		}
		s2 := new(Spec)
		if err := reqerr.DecodeStrict(bytes.NewReader(out), s2); err != nil {
			t.Fatalf("round trip rejected: %v (%s)", err, out)
		}
		if verdict2 := s2.Validate(); (verdict == nil) != (verdict2 == nil) {
			t.Fatalf("verdict changed across the round trip: %v vs %v (%s)", verdict, verdict2, out)
		}
	})
}
