package market

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"budgetwf/internal/fault"
	"budgetwf/internal/online"
	"budgetwf/internal/platform"
	"budgetwf/internal/reqerr"
	"budgetwf/internal/rng"
	"budgetwf/internal/sched"
	"budgetwf/internal/sim"
	"budgetwf/internal/wfgen"
)

// twoProviderSpec returns a market with a spot twin, a priced transfer
// matrix and per-provider overrides — every compile feature at once.
func twoProviderSpec() *Spec {
	boot := 30.0
	return &Spec{
		Providers: []ProviderSpec{
			{Name: "alpha", Categories: []CategorySpec{
				{Name: "small", Speed: 1e9, CostPerSec: 1e-6, InitCost: 0.0001,
					Spot: &SpotSpec{Discount: 0.6, RevocationsPerHour: 4}},
				{Name: "large", Speed: 4e9, CostPerSec: 8e-6, InitCost: 0.0001},
			}},
			{Name: "beta", Bandwidth: 250e6, BootTimeSec: &boot, Categories: []CategorySpec{
				{Name: "std", Speed: 2e9, CostPerSec: 3e-6, InitCost: 0.0002},
			}},
		},
		Transfer: [][]Link{
			{{}, {CostPerGB: 0.02, LatencySec: 0.5}},
			{{CostPerGB: 0.01, LatencySec: 0.25}, {}},
		},
		Home: "beta",
	}
}

func TestValidateErrors(t *testing.T) {
	mod := func(f func(*Spec)) *Spec {
		s := twoProviderSpec()
		f(s)
		return s
	}
	neg := -1.0
	cases := []struct {
		name     string
		spec     *Spec
		field    string
		semantic bool
	}{
		{"no providers", &Spec{}, "providers", false},
		{"too many providers", mod(func(s *Spec) {
			s.Transfer = nil
			for i := 0; i < maxProviders; i++ {
				s.Providers = append(s.Providers, ProviderSpec{
					Name:       strings.Repeat("x", i+1),
					Categories: []CategorySpec{{Name: "c", Speed: 1, CostPerSec: 1}},
				})
			}
		}), "providers", false},
		{"empty provider name", mod(func(s *Spec) { s.Providers[0].Name = "" }), "providers[0].name", false},
		{"duplicate provider", mod(func(s *Spec) { s.Providers[1].Name = "alpha" }), "providers[1].name", false},
		{"negative provider bandwidth", mod(func(s *Spec) { s.Providers[1].Bandwidth = -1 }), "providers[1].bandwidth", false},
		{"negative provider boot", mod(func(s *Spec) { s.Providers[1].BootTimeSec = &neg }), "providers[1].bootTimeSec", false},
		{"no categories", mod(func(s *Spec) { s.Providers[1].Categories = nil }), "providers[1].categories", false},
		{"empty category name", mod(func(s *Spec) { s.Providers[0].Categories[1].Name = "" }), "providers[0].categories[1].name", false},
		{"duplicate category", mod(func(s *Spec) { s.Providers[0].Categories[1].Name = "small" }), "providers[0].categories[1].name", false},
		{"zero speed", mod(func(s *Spec) { s.Providers[0].Categories[0].Speed = 0 }), "providers[0].categories[0].speed", false},
		{"negative cost", mod(func(s *Spec) { s.Providers[0].Categories[0].CostPerSec = -1 }), "providers[0].categories[0].costPerSec", false},
		{"negative init cost", mod(func(s *Spec) { s.Providers[0].Categories[0].InitCost = -1 }), "providers[0].categories[0].initCost", false},
		{"discount of one", mod(func(s *Spec) { s.Providers[0].Categories[0].Spot.Discount = 1 }), "providers[0].categories[0].spot.discount", false},
		{"negative revocation rate", mod(func(s *Spec) { s.Providers[0].Categories[0].Spot.RevocationsPerHour = -1 }), "providers[0].categories[0].spot.revocationsPerHour", false},
		{"transfer row count", mod(func(s *Spec) { s.Transfer = s.Transfer[:1] }), "transfer", false},
		{"ragged transfer row", mod(func(s *Spec) { s.Transfer[1] = s.Transfer[1][:1] }), "transfer[1]", false},
		{"negative link cost", mod(func(s *Spec) { s.Transfer[0][1].CostPerGB = -1 }), "transfer[0][1].costPerGB", false},
		{"negative link latency", mod(func(s *Spec) { s.Transfer[0][1].LatencySec = -1 }), "transfer[0][1].latencySec", false},
		{"unknown home", mod(func(s *Spec) { s.Home = "nowhere" }), "home", true},
		{"negative bandwidth", mod(func(s *Spec) { s.Bandwidth = -1 }), "bandwidth", false},
		{"negative boot time", mod(func(s *Spec) { s.BootTimeSec = &neg }), "bootTimeSec", false},
		{"negative dc cost", mod(func(s *Spec) { s.DCCostPerSec = &neg }), "dcCostPerSec", false},
		{"negative transfer cost", mod(func(s *Spec) { s.TransferCostPerByte = &neg }), "transferCostPerByte", false},
		{"negative billing quantum", mod(func(s *Spec) { s.BillingQuantumSec = -1 }), "billingQuantumSec", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate()
			if err == nil {
				t.Fatal("want error, got nil")
			}
			var fe *reqerr.Error
			if !errors.As(err, &fe) {
				t.Fatalf("want *reqerr.Error, got %T: %v", err, err)
			}
			if fe.Field != "market."+tc.field {
				t.Errorf("field = %q, want %q", fe.Field, "market."+tc.field)
			}
			if fe.Semantic != tc.semantic {
				t.Errorf("semantic = %v, want %v", fe.Semantic, tc.semantic)
			}
			if !strings.HasPrefix(err.Error(), "market."+tc.field+": ") {
				t.Errorf("Error() = %q, want prefix %q", err.Error(), "market."+tc.field+": ")
			}
		})
	}
}

// TestParseSpecStrict: a market spec goes through the strict decode of
// every request body, so a misspelled field is a loud 400, never a
// silently on-demand-only market.
func TestParseSpecStrict(t *testing.T) {
	parse := func(b string) (*Spec, error) {
		s := new(Spec)
		return s, reqerr.DecodeStrict(strings.NewReader(b), s)
	}
	if _, err := parse(`{"providers": [], "discounts": 1}`); err == nil || !strings.Contains(err.Error(), `unknown field "discounts"`) {
		t.Errorf("unknown field: got %v", err)
	}
	if _, err := parse(`{"providers": []} garbage`); err == nil {
		t.Error("trailing data: want error, got nil")
	}
	s, err := parse(`{"providers": [{"name": "a", "categories": [{"name": "c", "speed": 1e9, "costPerSec": 1e-6}]}]}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Providers) != 1 || s.Providers[0].Name != "a" {
		t.Errorf("parsed spec = %+v", s)
	}
}

func TestCompileMultiProvider(t *testing.T) {
	p, err := twoProviderSpec().Compile()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(p.Categories), 4; got != want {
		t.Fatalf("categories = %d, want %d (2 alpha + spot twin + 1 beta)", got, want)
	}
	for i := 1; i < len(p.Categories); i++ {
		if p.Categories[i].CostPerSec < p.Categories[i-1].CostPerSec {
			t.Fatalf("categories not sorted by cost: %v", p.Categories)
		}
	}
	byName := map[string]platform.Category{}
	idx := map[string]int{}
	for i, c := range p.Categories {
		byName[c.Name] = c
		idx[c.Name] = i
	}
	spot, ok := byName["alpha/small.spot"]
	if !ok {
		t.Fatalf("no spot twin; categories %v", p.Categories)
	}
	od := byName["alpha/small"]
	if !spot.Spot || spot.Speed != od.Speed || spot.Provider != od.Provider {
		t.Errorf("spot twin %+v does not mirror %+v", spot, od)
	}
	if got, want := spot.CostPerSec, od.CostPerSec*0.4; got != want {
		t.Errorf("spot cost = %g, want %g (60%% discount)", got, want)
	}
	if spot.RevocationRatePerHour != 4 {
		t.Errorf("spot revocation rate = %g, want 4", spot.RevocationRatePerHour)
	}
	if sib := p.OnDemandSibling(idx["alpha/small.spot"]); sib != idx["alpha/small"] {
		t.Errorf("OnDemandSibling = %d (%s), want %d (alpha/small)", sib, p.Categories[sib].Name, idx["alpha/small"])
	}
	if p.DCProvider != 1 {
		t.Errorf("DCProvider = %d, want 1 (home beta)", p.DCProvider)
	}
	perByte := func(costPerGB float64) float64 { return costPerGB / bytesPerGB }
	if got := p.XferCostPerByte[0][1]; got != perByte(0.02) {
		t.Errorf("XferCostPerByte[0][1] = %g, want %g", got, perByte(0.02))
	}
	if got := p.XferLatencySec[1][0]; got != 0.25 {
		t.Errorf("XferLatencySec[1][0] = %g, want 0.25", got)
	}
	if p.ProviderBandwidth == nil || p.ProviderBandwidth[1] != 250e6 || p.ProviderBandwidth[0] != p.Bandwidth {
		t.Errorf("ProviderBandwidth = %v", p.ProviderBandwidth)
	}
	if p.ProviderBootTime == nil || p.ProviderBootTime[1] != 30 || p.ProviderBootTime[0] != p.BootTime {
		t.Errorf("ProviderBootTime = %v", p.ProviderBootTime)
	}
	if !p.MarketDistinct() || !p.HasSpot() {
		t.Error("compiled multi-provider spot platform must be MarketDistinct and HasSpot")
	}
}

// defaultAsSpec mirrors platform.Default() as a single-provider market
// spec, with an explicitly all-zero transfer matrix that Compile must
// drop.
func defaultAsSpec() *Spec {
	def := platform.Default()
	var cats []CategorySpec
	for _, c := range def.Categories {
		cats = append(cats, CategorySpec{Name: c.Name, Speed: c.Speed, CostPerSec: c.CostPerSec, InitCost: c.InitCost})
	}
	return &Spec{
		Providers: []ProviderSpec{{Name: "solo", Categories: cats}},
		Transfer:  [][]Link{{{}}},
	}
}

// TestCompileDegenerateHash: a single-provider, zero-revocation,
// zero-matrix market compiles to a platform with the same canonical
// hash as the hand-built scalar platform — the cache-key identity the
// server relies on.
func TestCompileDegenerateHash(t *testing.T) {
	p, err := defaultAsSpec().Compile()
	if err != nil {
		t.Fatal(err)
	}
	if p.MarketDistinct() {
		t.Error("degenerate market compiled MarketDistinct")
	}
	if p.XferCostPerByte != nil || p.XferLatencySec != nil {
		t.Error("all-zero transfer matrix not dropped")
	}
	if got, want := p.CanonicalHash(), platform.Default().CanonicalHash(); got != want {
		t.Errorf("CanonicalHash = %s, want %s", got, want)
	}
}

func TestMergeRevocations(t *testing.T) {
	scalar := platform.Default()
	spot, err := twoProviderSpec().Compile()
	if err != nil {
		t.Fatal(err)
	}
	if got := MergeRevocations(nil, scalar, 7); got != nil {
		t.Errorf("no hazard, no user: got %+v, want nil", got)
	}
	user := &fault.Spec{CrashRatePerHour: []float64{1}, Seed: 99}
	if got := MergeRevocations(user, scalar, 7); got != user {
		t.Errorf("no hazard: want the user spec unchanged, got %+v", got)
	}
	rev := MergeRevocations(nil, spot, 7)
	if rev == nil || rev.Seed != 7 {
		t.Fatalf("platform-only merge = %+v", rev)
	}
	wantRates := spot.RevocationRates()
	if len(rev.CrashRatePerHour) != len(wantRates) {
		t.Fatalf("rates = %v, want %v", rev.CrashRatePerHour, wantRates)
	}
	merged := MergeRevocations(user, spot, 7)
	if merged.Seed != 99 {
		t.Errorf("merged seed = %d, want the user's 99", merged.Seed)
	}
	for i := range merged.CrashRatePerHour {
		// A scalar user rate broadcasts over every category and the two
		// exponential processes superpose by rate addition.
		if got, want := merged.CrashRatePerHour[i], wantRates[i]+1; got != want {
			t.Errorf("merged rate[%d] = %g, want %g", i, got, want)
		}
	}
	if user.CrashRatePerHour[0] != 1 {
		t.Error("merge mutated the user spec")
	}
}

// TestDegenerateEquivalence is the property test the package doc
// promises: across 120 random (family, size, seed, budget, algorithm)
// cases, a single-provider zero-revocation market compiles to a
// platform whose plans (JSON bytes), simulation results and online
// executor reports — including the migration decision log — are
// byte-identical to the hand-built scalar platform's.
func TestDegenerateEquivalence(t *testing.T) {
	families := []wfgen.Type{wfgen.Montage, wfgen.Ligo, wfgen.CyberShake, wfgen.Chain, wfgen.ForkJoin}
	algs := []sched.Name{"heftbudg", "minminbudg", "cg", "bdt", "heftbudg+"}
	budgets := []float64{100, 2, 0.5}

	scalar := platform.Default()
	compiled, err := defaultAsSpec().Compile()
	if err != nil {
		t.Fatal(err)
	}

	cases := 0
	for i := 0; i < 120; i++ {
		fam := families[i%len(families)]
		// Each family has its own size constraint: montage ≥12, ligo a
		// multiple of 10, cybershake even ≥6.
		n := 12 + (i*7)%28
		switch fam {
		case wfgen.Ligo:
			n = 10 * (1 + i%3)
		case wfgen.CyberShake:
			n = 6 + 2*(i%12)
		}
		seed := uint64(1000 + i)
		budget := budgets[i%len(budgets)]
		algName := algs[i%len(algs)]
		alg, err := sched.ByName(algName)
		if err != nil {
			t.Fatal(err)
		}
		w, err := wfgen.Generate(fam, n, seed)
		if err != nil {
			t.Fatalf("case %d: generate %s/%d: %v", i, fam, n, err)
		}
		w = w.WithSigmaRatio(0.5)

		planA, errA := alg.Plan(w, scalar, budget)
		planB, errB := alg.Plan(w, compiled, budget)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("case %d (%s %s/%d B=%g): plan errors diverge: %v vs %v", i, algName, fam, n, budget, errA, errB)
		}
		if errA != nil {
			if errA.Error() != errB.Error() {
				t.Fatalf("case %d: error text diverges: %q vs %q", i, errA, errB)
			}
			continue // infeasible budget on both sides: equivalent
		}
		cases++

		var bufA, bufB bytes.Buffer
		if err := planA.WriteJSON(&bufA); err != nil {
			t.Fatal(err)
		}
		if err := planB.WriteJSON(&bufB); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
			t.Fatalf("case %d (%s %s/%d B=%g): plan JSON diverges:\n%s\nvs\n%s", i, algName, fam, n, budget, bufA.Bytes(), bufB.Bytes())
		}

		weights := sim.SampleWeights(w, rng.New(seed*3+1))
		simA, err := sim.Run(w, scalar, planA, weights)
		if err != nil {
			t.Fatal(err)
		}
		simB, err := sim.Run(w, compiled, planB, weights)
		if err != nil {
			t.Fatal(err)
		}
		ja, _ := json.Marshal(simA)
		jb, _ := json.Marshal(simB)
		if !bytes.Equal(ja, jb) {
			t.Fatalf("case %d (%s %s/%d B=%g): sim results diverge:\n%s\nvs\n%s", i, algName, fam, n, budget, ja, jb)
		}

		repA, err := online.Execute(w, scalar, planA, weights, online.DefaultPolicy(budget))
		if err != nil {
			t.Fatal(err)
		}
		repB, err := online.Execute(w, compiled, planB, weights, online.DefaultPolicy(budget))
		if err != nil {
			t.Fatal(err)
		}
		ra, _ := json.Marshal(repA)
		rb, _ := json.Marshal(repB)
		if !bytes.Equal(ra, rb) {
			t.Fatalf("case %d (%s %s/%d B=%g): online reports diverge:\n%s\nvs\n%s", i, algName, fam, n, budget, ra, rb)
		}
	}
	if cases < 100 {
		t.Fatalf("only %d feasible cases exercised, want >= 100", cases)
	}
}
