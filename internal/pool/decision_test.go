package pool

import (
	"fmt"
	"math"
	"testing"

	"budgetwf/internal/sched"
)

// The oracles are the fmt formats the decision log was first rendered
// with; the strconv renderers must reproduce them byte for byte.

func oracleString(d Decision) string {
	return fmt.Sprintf("%v %s tenant=%s sub=%d vm=%d cat=%d amount=%v %s",
		d.At, d.Kind, d.Tenant, d.Sub, d.VM, d.Cat, d.Amount, d.Note)
}

// checkRenderers compares every renderer with its oracle on one set of
// field values.
func checkRenderers(t *testing.T, f, g float64, s string, i, j int, b bool) {
	t.Helper()
	d := Decision{At: f, Kind: s, Tenant: s, Sub: i, VM: j, Cat: -i, Amount: g, Note: s}
	pairs := []struct{ name, got, want string }{
		{"String", d.String(), oracleString(d)},
		{"submitNote", submitNote(sched.Name(s), i, j), fmt.Sprintf("alg=%s tasks=%d plannedVMs=%d", s, i, j)},
		{"reuseNote", reuseNote(s, f, g), fmt.Sprintf("from=%s age=%v paidUntil=%v", s, f, g)},
		{"settleNote", settleNote(f, i, j, b), fmt.Sprintf("makespan=%v vms=%d reused=%d completed=%v", f, i, j, b)},
		{"floatNote bootDone", floatNote("bootDone=", f), fmt.Sprintf("bootDone=%v", f)},
		{"floatNote paidUntil", floatNote("paidUntil=", g), fmt.Sprintf("paidUntil=%v", g)},
	}
	for _, p := range pairs {
		if p.got != p.want {
			t.Errorf("%s(%v, %v, %q, %d, %d, %v):\n got %q\nwant %q", p.name, f, g, s, i, j, b, p.got, p.want)
		}
	}
}

func TestDecisionStringMatchesFmt(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1 + 0.2, 1e20, 1e21, -1e21, 1e-4, 1e-5,
		5e-324, -5e-324, math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1), 3728.9265954401344, 123456789.125, 2.5e-7,
	}
	ints := []int{0, -1, 1, 255, 256, -256, 1 << 40, math.MaxInt64, math.MinInt64}
	strs := []string{"", "alice", "tenant-2", "ünïcode", "\xff\xfe", "with space", "100%d"}
	for k, f := range floats {
		g := floats[(k+7)%len(floats)]
		for m, i := range ints {
			j := ints[(m+3)%len(ints)]
			for _, s := range strs {
				checkRenderers(t, f, g, s, i, j, (k+m)%2 == 0)
			}
		}
	}
	// The decisions of the golden traces' shapes, empty note included.
	for _, d := range []Decision{
		{At: 68.92659544013421, Kind: "provision", Tenant: "alice", Sub: 0, VM: 1, Cat: 2, Amount: 0.18569999999999998, Note: "bootDone=128.9265954401342"},
		{At: 3600, Kind: "billing", Tenant: "bob", Sub: 12, VM: 300, Cat: 0, Amount: 0.1},
		{At: 0, Kind: "reject", Tenant: "carol", Sub: 3, VM: -1, Cat: -1, Note: "tenant carol budget exhausted (50 of 50 spent)"},
	} {
		if got, want := d.String(), oracleString(d); got != want {
			t.Errorf("got %q, want %q", got, want)
		}
	}
}

// TestDecisionRenderAllocs pins one allocation per rendered line and
// per note: the returned string.
func TestDecisionRenderAllocs(t *testing.T) {
	d := Decision{At: 1485.9996099595674, Kind: "settle", Tenant: "tenant-2", Sub: 5999, VM: -1, Cat: -1,
		Amount: 0.0021393576077449947, Note: "makespan=61.77414192843599 vms=2 reused=2 completed=true"}
	for name, f := range map[string]func(){
		"String":     func() { _ = d.String() },
		"submitNote": func() { _ = submitNote(sched.NameHeftBudg, 90, 12) },
		"reuseNote":  func() { _ = reuseNote("tenant-2", 115.06985011423694, 3785.9996099595674) },
		"settleNote": func() { _ = settleNote(61.77414192843599, 2, 2, true) },
		"floatNote":  func() { _ = floatNote("paidUntil=", 3785.9996099595674) },
	} {
		if n := testing.AllocsPerRun(100, f); n != 1 {
			t.Errorf("%s: %v allocations, want 1", name, n)
		}
	}
}

func FuzzDecisionString(f *testing.F) {
	f.Add(0.0, 0.0, "", 0, 0, false)
	f.Add(math.NaN(), math.Inf(1), "alice", -1, 256, true)
	f.Add(math.Copysign(0, -1), math.Inf(-1), "\xff", math.MinInt64, math.MaxInt64, false)
	f.Add(1e21, 5e-324, "tenant-2", 255, -256, true)
	f.Fuzz(func(t *testing.T, a, b float64, s string, i, j int, c bool) {
		checkRenderers(t, a, b, s, i, j, c)
	})
}
