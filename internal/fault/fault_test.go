package fault

import (
	"errors"
	"math"
	"strings"
	"testing"

	"budgetwf/internal/reqerr"
)

func TestSpecValidateTable(t *testing.T) {
	cases := []struct {
		name  string
		spec  Spec
		cats  int
		field string // "" means valid
	}{
		{name: "zero", spec: Spec{}, cats: 3},
		{name: "broadcast rate", spec: Spec{CrashRatePerHour: []float64{0.1}}, cats: 3},
		{name: "per-category rates", spec: Spec{CrashRatePerHour: []float64{0.1, 0.2, 0.3}}, cats: 3},
		{name: "wrong rate count", spec: Spec{CrashRatePerHour: []float64{0.1, 0.2}}, cats: 3, field: "crashRatePerHour"},
		{name: "negative rate", spec: Spec{CrashRatePerHour: []float64{-1}}, cats: 3, field: "crashRatePerHour"},
		{name: "NaN rate", spec: Spec{CrashRatePerHour: []float64{math.NaN()}}, cats: 3, field: "crashRatePerHour"},
		{name: "Inf rate", spec: Spec{CrashRatePerHour: []float64{math.Inf(1)}}, cats: 3, field: "crashRatePerHour"},
		{name: "boot prob 1", spec: Spec{BootFailProb: 1}, cats: 3, field: "bootFailProb"},
		{name: "boot prob negative", spec: Spec{BootFailProb: -0.1}, cats: 3, field: "bootFailProb"},
		{name: "task prob NaN", spec: Spec{TaskFailProb: math.NaN()}, cats: 3, field: "taskFailProb"},
		{name: "good recovery", spec: Spec{Recovery: "replicate"}, cats: 3},
		{name: "bad recovery", spec: Spec{Recovery: "pray"}, cats: 3, field: "recovery"},
		{name: "negative retries", spec: Spec{MaxRetries: -1}, cats: 3, field: "maxRetries"},
		{name: "huge retries", spec: Spec{MaxRetries: 100}, cats: 3, field: "maxRetries"},
		{name: "negative backoff", spec: Spec{RebootBackoffSec: -5}, cats: 3, field: "rebootBackoffSec"},
		{name: "Inf backoff", spec: Spec{RebootBackoffSec: math.Inf(1)}, cats: 3, field: "rebootBackoffSec"},
		{name: "cap below base", spec: Spec{RebootBackoffSec: 10, MaxBackoffSec: 5}, cats: 3, field: "maxBackoffSec"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate(tc.cats)
			if tc.field == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			var fe *reqerr.Error
			if !errors.As(err, &fe) {
				t.Fatalf("want *reqerr.Error for %s, got %v", tc.field, err)
			}
			if fe.Field != "faults."+tc.field || fe.Semantic {
				t.Fatalf("field = %q (semantic %v), want faults.%s as a scalar-domain error (err: %v)", fe.Field, fe.Semantic, tc.field, err)
			}
		})
	}
}

func TestNilSpecIsZeroAndValid(t *testing.T) {
	var s *Spec
	if !s.IsZero() {
		t.Error("nil spec not zero")
	}
	if err := s.Validate(3); err != nil {
		t.Errorf("nil spec invalid: %v", err)
	}
	if s.NewInjection() != nil {
		t.Error("nil spec produced an injection")
	}
}

func TestZeroSpecModelIsNoFaults(t *testing.T) {
	s := &Spec{Seed: 7}
	if s.NewModel() != NoFaults {
		t.Fatal("zero-rate spec did not return NoFaults")
	}
	tr := NoFaults.NewVM(0)
	if tr.BootFails() || tr.TaskFails() || !math.IsInf(tr.TimeToCrash(), 1) {
		t.Fatal("NoFaults trace injects faults")
	}
}

func TestModelDeterminism(t *testing.T) {
	spec := &Spec{CrashRatePerHour: []float64{0.5}, BootFailProb: 0.2, TaskFailProb: 0.1, Seed: 99}
	a, b := spec.NewModel(), spec.NewModel()
	for i := 0; i < 50; i++ {
		ta, tb := a.NewVM(i%3), b.NewVM(i%3)
		if ta.BootFails() != tb.BootFails() {
			t.Fatalf("vm %d: boot outcome diverged", i)
		}
		if ta.TimeToCrash() != tb.TimeToCrash() {
			t.Fatalf("vm %d: crash time diverged", i)
		}
		for j := 0; j < 10; j++ {
			if ta.TaskFails() != tb.TaskFails() {
				t.Fatalf("vm %d exec %d: task outcome diverged", i, j)
			}
		}
	}
}

// TestCrashTimesExponential: the empirical mean time-to-crash matches
// 3600/λ within a loose tolerance.
func TestCrashTimesExponential(t *testing.T) {
	spec := &Spec{CrashRatePerHour: []float64{2}, Seed: 1}
	m := spec.NewModel()
	sum, n := 0.0, 20000
	for i := 0; i < n; i++ {
		sum += m.NewVM(0).TimeToCrash()
	}
	mean := sum / float64(n)
	want := 3600.0 / 2
	if math.Abs(mean-want) > 0.05*want {
		t.Fatalf("mean time-to-crash %v, want ≈ %v", mean, want)
	}
}

func TestRateBroadcast(t *testing.T) {
	one := &Spec{CrashRatePerHour: []float64{0.3}}
	for cat := 0; cat < 5; cat++ {
		if got := one.rateFor(cat); got != 0.3 {
			t.Fatalf("broadcast rateFor(%d) = %v", cat, got)
		}
	}
	per := &Spec{CrashRatePerHour: []float64{0.1, 0.2, 0.3}}
	for cat, want := range []float64{0.1, 0.2, 0.3} {
		if got := per.rateFor(cat); got != want {
			t.Fatalf("rateFor(%d) = %v, want %v", cat, got, want)
		}
	}
}

func TestRecoveryKindRoundTrip(t *testing.T) {
	for _, k := range []RecoveryKind{RetrySame, ResubmitFastest, Replicate} {
		got, err := ParseRecoveryKind(k.String())
		if err != nil || got != k {
			t.Fatalf("round trip %v: got %v, err %v", k, got, err)
		}
	}
	if _, err := ParseRecoveryKind("nope"); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if k, err := ParseRecoveryKind(""); err != nil || k != RetrySame {
		t.Fatalf("empty kind: got %v, err %v", k, err)
	}
}

func TestBackoffDoublesAndCaps(t *testing.T) {
	r := Recovery{RebootBackoff: 2, MaxBackoff: 10}
	wants := []float64{2, 4, 8, 10, 10}
	for i, want := range wants {
		if got := r.Backoff(i + 1); got != want {
			t.Fatalf("Backoff(%d) = %v, want %v", i+1, got, want)
		}
	}
	if got := (Recovery{}).Backoff(3); got != 0 {
		t.Fatalf("zero-base backoff = %v, want 0", got)
	}
	// Default cap is 16× the base.
	r = Recovery{RebootBackoff: 1}
	if got := r.Backoff(10); got != 16 {
		t.Fatalf("default cap backoff = %v, want 16", got)
	}
}

// TestParseSpecStrict: a fault spec goes through the strict decode of
// every request body, which rejects unknown fields, trailing data and
// non-JSON.
func TestParseSpecStrict(t *testing.T) {
	good := `{"crashRatePerHour":[0.1],"bootFailProb":0.05,"recovery":"replicate","maxRetries":2}`
	var s Spec
	if err := reqerr.DecodeStrict(strings.NewReader(good), &s); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	if s.Recovery != "replicate" || s.MaxRetries != 2 {
		t.Fatalf("parsed spec %+v", s)
	}
	for name, bad := range map[string]string{
		"unknown field": `{"crashRate": 0.1}`,
		"trailing":      `{"bootFailProb":0.1} {}`,
		"not json":      `λ=0.1`,
	} {
		if err := reqerr.DecodeStrict(strings.NewReader(bad), new(Spec)); err == nil {
			t.Errorf("%s: accepted %q", name, bad)
		}
	}
}

func TestRetriesDefault(t *testing.T) {
	if got := (Recovery{}).Retries(); got != DefaultMaxRetries {
		t.Fatalf("default retries = %d", got)
	}
	if got := (Recovery{MaxRetries: 7}).Retries(); got != 7 {
		t.Fatalf("explicit retries = %d", got)
	}
}
