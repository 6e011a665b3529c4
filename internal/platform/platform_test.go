package platform

import (
	"math"
	"testing"
)

func TestDefaultIsValid(t *testing.T) {
	p := Default()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumCategories() != 3 {
		t.Errorf("categories = %d", p.NumCategories())
	}
}

func TestDefaultCalibration(t *testing.T) {
	p := Default()
	// Per-instruction cost must strictly increase with speed, or the
	// budget trade-off degenerates (see defaults.go).
	prev := 0.0
	for _, c := range p.Categories {
		perInstr := c.CostPerSec / c.Speed
		if perInstr <= prev {
			t.Errorf("category %s: per-instruction cost %.3e not increasing", c.Name, perInstr)
		}
		prev = perInstr
	}
	// The init-cost reserve for a 400-task workflow must stay well
	// under the compute cost of a typical task (≈100 s on category 1),
	// or Algorithm 1's reserve starves B_calc.
	taskCost := 100 * p.Categories[0].CostPerSec
	if p.Categories[0].InitCost > taskCost/2 {
		t.Errorf("init cost %.2e too large versus task cost %.2e", p.Categories[0].InitCost, taskCost)
	}
}

func TestValidateRejections(t *testing.T) {
	base := Default()
	mutations := []func(*Platform){
		func(p *Platform) { p.Categories = nil },
		func(p *Platform) { p.Categories[0].Speed = 0 },
		func(p *Platform) { p.Categories[0].Speed = math.NaN() },
		func(p *Platform) { p.Categories[1].CostPerSec = -1 },
		func(p *Platform) { p.Categories[2].InitCost = -1 },
		func(p *Platform) { p.Categories[0].CostPerSec = 99 }, // breaks sort
		func(p *Platform) { p.Bandwidth = 0 },
		func(p *Platform) { p.BootTime = -1 },
		func(p *Platform) { p.DCCostPerSec = -1 },
		func(p *Platform) { p.TransferCostPerByte = -1 },
		func(p *Platform) { p.DCBandwidth = -5 },
	}
	for i, mutate := range mutations {
		p := *base
		p.Categories = append([]Category(nil), base.Categories...)
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestMeanSpeed(t *testing.T) {
	p := Default()
	want := (1e9 + 2e9 + 4e9) / 3
	if got := p.MeanSpeed(); got != want {
		t.Errorf("MeanSpeed = %v, want %v", got, want)
	}
	empty := &Platform{}
	if empty.MeanSpeed() != 0 {
		t.Error("MeanSpeed of empty platform should be 0")
	}
}

func TestCheapestFastest(t *testing.T) {
	p := Default()
	if p.Cheapest() != 0 {
		t.Errorf("Cheapest = %d", p.Cheapest())
	}
	if p.Fastest() != 2 {
		t.Errorf("Fastest = %d", p.Fastest())
	}
}

func TestExecAndTransferTime(t *testing.T) {
	p := Default()
	if got := p.ExecTime(0, 2e9); got != 2 {
		t.Errorf("ExecTime = %v", got)
	}
	if got := p.TransferTime(250e6); got != 2 {
		t.Errorf("TransferTime = %v", got)
	}
	if p.TransferTime(0) != 0 || p.TransferTime(-5) != 0 {
		t.Error("non-positive transfers should take no time")
	}
}

func TestVMCost(t *testing.T) {
	p := Default()
	c := p.Categories[0]
	got := p.VMCost(0, 100, 400)
	want := 300*c.CostPerSec + c.InitCost
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("VMCost = %v, want %v", got, want)
	}
	// end < start is clamped: only the init cost remains.
	if got := p.VMCost(0, 400, 100); got != c.InitCost {
		t.Errorf("clamped VMCost = %v", got)
	}
}

func TestDCCost(t *testing.T) {
	p := Default()
	got := p.DCCost(1e9, 1e9, 0, 1000)
	want := 2e9*p.TransferCostPerByte + 1000*p.DCCostPerSec
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("DCCost = %v, want %v", got, want)
	}
	if got := p.DCCost(0, 0, 50, 10); got != 0 {
		t.Errorf("clamped DCCost = %v", got)
	}
}

func TestVMCostBillingQuantum(t *testing.T) {
	p := Default()
	p.BillingQuantum = 3600 // hourly billing
	c := p.Categories[0]
	// 90 minutes of lifetime bills two full hours.
	got := p.VMCost(0, 0, 5400)
	want := 7200*c.CostPerSec + c.InitCost
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("quantized VMCost = %v, want %v", got, want)
	}
	// Exactly one hour bills one hour.
	got = p.VMCost(0, 0, 3600)
	want = 3600*c.CostPerSec + c.InitCost
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("exact-hour VMCost = %v, want %v", got, want)
	}
	// A provisioned VM with zero lifetime still bills one unit.
	got = p.VMCost(0, 100, 100)
	want = 3600*c.CostPerSec + c.InitCost
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("zero-span VMCost = %v, want %v", got, want)
	}
	p.BillingQuantum = -1
	if err := p.Validate(); err == nil {
		t.Error("negative quantum accepted")
	}
}

func TestPaidHorizonAndExtensionCost(t *testing.T) {
	p := Default()
	p.BillingQuantum = 3600
	c := p.Categories[0]
	// A provisioned VM has always paid at least one unit, even at age 0.
	if got := p.PaidHorizon(0); got != 3600 {
		t.Errorf("PaidHorizon(0) = %v, want 3600", got)
	}
	if got := p.PaidHorizon(3600); got != 3600 {
		t.Errorf("PaidHorizon(3600) = %v, want 3600", got)
	}
	if got := p.PaidHorizon(3601); got != 7200 {
		t.Errorf("PaidHorizon(3601) = %v, want 7200", got)
	}
	// Staying inside the paid unit is free and carries no setup fee.
	if got := p.ExtensionCost(0, 100, 3600); got != 0 {
		t.Errorf("within-unit ExtensionCost = %v, want 0", got)
	}
	// Crossing into a new unit bills exactly the new units.
	got := p.ExtensionCost(0, 100, 3601)
	want := 3600 * c.CostPerSec
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("one-unit ExtensionCost = %v, want %v", got, want)
	}
	got = p.ExtensionCost(0, 3600, 3*3600+1)
	want = 3 * 3600 * c.CostPerSec
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("multi-unit ExtensionCost = %v, want %v", got, want)
	}
	// Continuous billing degenerates to the per-second charge.
	p.BillingQuantum = 0
	got = p.ExtensionCost(0, 50, 150)
	want = 100 * c.CostPerSec
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("continuous ExtensionCost = %v, want %v", got, want)
	}
	if got := p.PaidHorizon(123); got != 123 {
		t.Errorf("continuous PaidHorizon(123) = %v, want 123", got)
	}
	// to < from clamps to zero rather than refunding.
	if got := p.ExtensionCost(0, 100, 50); got != 0 {
		t.Errorf("backwards ExtensionCost = %v, want 0", got)
	}
}
