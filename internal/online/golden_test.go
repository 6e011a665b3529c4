package online

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"budgetwf/internal/fault"
	"budgetwf/internal/platform"
	"budgetwf/internal/rng"
	"budgetwf/internal/sim"
	"budgetwf/internal/stoch"
)

var updateGolden = flag.Bool("update", false, "rewrite the digests in testdata/ from this run")

// digest hashes every field of v, recursively: floats by their IEEE-754
// bits, so a one-ulp change anywhere moves it.
func digest(v any) string {
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	var walk func(x reflect.Value)
	walk = func(x reflect.Value) {
		switch x.Kind() {
		case reflect.Float64:
			put(math.Float64bits(x.Float()))
		case reflect.Int, reflect.Int64, reflect.Int32:
			put(uint64(x.Int()))
		case reflect.Bool:
			if x.Bool() {
				put(1)
			} else {
				put(0)
			}
		case reflect.String:
			put(uint64(x.Len()))
			h.Write([]byte(x.String()))
		case reflect.Slice, reflect.Array:
			put(uint64(x.Len()))
			for i := 0; i < x.Len(); i++ {
				walk(x.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < x.NumField(); i++ {
				walk(x.Field(i))
			}
		case reflect.Pointer:
			if x.IsNil() {
				put(0)
				return
			}
			put(1)
			walk(x.Elem())
		default:
			panic(fmt.Sprintf("digest: unsupported kind %v", x.Kind()))
		}
	}
	walk(reflect.ValueOf(v))
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// outcome renders one execution for a golden file: the digest of its
// result, or its error.
func outcome(res any, err error) string {
	if err != nil {
		return "error " + err.Error()
	}
	return digest(res)
}

// checkGolden compares lines with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, lines []string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if len(want) != len(lines) {
		t.Fatalf("%s: %d lines, want %d", name, len(lines), len(want))
	}
	bad := 0
	for i := range lines {
		if lines[i] != want[i] && bad < 10 {
			bad++
			t.Errorf("%s line %d:\n got %s\nwant %s", name, i+1, lines[i], want[i])
		}
	}
}

// TestGoldenSimResults pins every field of sim.Result — per-task times
// and blames, per-VM usage, makespan and the cost split — on the
// shared generator's scalar and two-provider platforms, and on
// contended (DCBandwidth > 0) scalar ones.
func TestGoldenSimResults(t *testing.T) {
	var lines []string
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		w, s, p := randomOnlineCase(r)
		fluid := seed%3 == 2
		if fluid {
			p = scalarPlatform(r)
			p.DCBandwidth = p.Bandwidth * (0.5 + 2*r.Float64())
		}
		res, err := sim.Run(w, p, s, sim.SampleWeights(w, rng.New(uint64(seed))))
		lines = append(lines, fmt.Sprintf("seed %d fluid=%v providers=%d %s", seed, fluid, p.NumProviders(), outcome(res, err)))
	}
	checkGolden(t, "sim_results.txt", lines)
}

// TestGoldenReports pins every field of Report: zero-fault executions,
// monitored ones that migrate, each recovery policy under crash, boot
// and task faults, and spot revocations.
func TestGoldenReports(t *testing.T) {
	var lines []string
	add := func(label string, seed int64, rep *Report, err error) {
		lines = append(lines, fmt.Sprintf("%s seed %d %s", label, seed, outcome(rep, err)))
	}
	migrations := 0
	for seed := int64(0); seed < 150; seed++ {
		r := rand.New(rand.NewSource(seed))
		w, s, p := randomOnlineCase(r)
		weights := sim.SampleWeights(w, rng.New(uint64(seed)))
		rep, err := Execute(w, p, s, weights, Policy{})
		add("zero-fault", seed, rep, err)

		outliers := sim.SampleWeightsOutliers(w, rng.New(uint64(seed)), stoch.Outliers{Prob: 0.2, Factor: 10})
		pol := Policy{TimeoutSigma: 2, MaxMigrations: 1 + r.Intn(2)}
		if r.Intn(2) == 0 {
			pol.GainFactor = 0.5
		}
		if r.Intn(3) == 0 {
			pol.Budget = 50 + r.Float64()*500
		}
		rep, err = Execute(w, p, s, outliers, pol)
		if err == nil {
			migrations += len(rep.Migrations)
		}
		add("monitored", seed, rep, err)
	}
	if migrations == 0 {
		t.Fatal("no monitored execution migrated: the fixture pins nothing")
	}
	kinds := []string{"retry-same", "resubmit-fastest", "replicate"}
	faults := map[string]func(*fault.Spec, *rand.Rand){
		"crash": func(sp *fault.Spec, r *rand.Rand) { sp.CrashRatePerHour = []float64{2 + 20*r.Float64()} },
		"boot":  func(sp *fault.Spec, r *rand.Rand) { sp.BootFailProb = 0.1 + 0.3*r.Float64() },
		"task":  func(sp *fault.Spec, r *rand.Rand) { sp.TaskFailProb = 0.05 + 0.25*r.Float64() },
	}
	for _, kind := range kinds {
		for _, fname := range []string{"crash", "boot", "task"} {
			for seed := int64(0); seed < 40; seed++ {
				r := rand.New(rand.NewSource(seed))
				w, s, p := randomOnlineCase(r)
				weights := sim.SampleWeights(w, rng.New(uint64(seed)))
				spec := &fault.Spec{Seed: uint64(seed), Recovery: kind, MaxRetries: 1 + r.Intn(3), RebootBackoffSec: 5 * r.Float64()}
				faults[fname](spec, r)
				budget := [...]float64{0, 1e12, 1 + 200*r.Float64()}[r.Intn(3)]
				rep, err := Execute(w, p, s, weights, Policy{Budget: budget, Faults: spec.NewInjection()})
				add(kind+"/"+fname, seed, rep, err)
			}
		}
	}
	revocations := 0
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		w, s, p := randomOnlineCase(r)
		twins := p.WithSpotTwins(0.6, 0)
		rates := make([]float64, twins.NumCategories())
		for k, c := range twins.Categories {
			if c.Spot {
				rates[k] = 5 + 30*r.Float64()
			}
		}
		onSpot := s.Clone()
		for vm, k := range onSpot.VMCats {
			name := p.Categories[k].Name
			if r.Intn(3) > 0 {
				name += ".spot"
			}
			onSpot.VMCats[vm] = catNamed(twins, name)
		}
		spec := &fault.Spec{CrashRatePerHour: rates, Seed: uint64(seed), Recovery: kinds[seed%3]}
		rep, err := Execute(w, twins, onSpot, sim.SampleWeights(w, rng.New(uint64(seed))), Policy{Budget: 1e9, Faults: spec.NewInjection()})
		if err == nil {
			revocations += rep.Revocations
		}
		add("spot", seed, rep, err)
	}
	if revocations == 0 {
		t.Fatal("no spot VM was revoked: the fixture pins nothing")
	}
	checkGolden(t, "reports.txt", lines)
}

// catNamed returns the index of the category called name.
func catNamed(p *platform.Platform, name string) int {
	for k, c := range p.Categories {
		if c.Name == name {
			return k
		}
	}
	panic("no category " + name)
}
