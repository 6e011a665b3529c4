package sim

import (
	"testing"

	"budgetwf/internal/plan"
	"budgetwf/internal/stoch"
	"budgetwf/internal/wf"
)

func TestUtilizationSingleTask(t *testing.T) {
	w := wf.New("u")
	a := w.AddTask("a", stoch.Dist{Mean: 100})
	if err := w.SetExternalIO(a, 20, 10); err != nil {
		t.Fatal(err)
	}
	s := singleVMSchedule(w, a)
	res, err := Run(w, testPlatform(), s, []float64{100})
	if err != nil {
		t.Fatal(err)
	}
	// Billed span 5..18 = 13 s; busy = staging 2 + compute 10 = 12 s
	// (the final 1 s upload is idle-but-billed).
	vm := res.VMs[0]
	if !almostEq(vm.Busy, 12) {
		t.Errorf("busy %v, want 12", vm.Busy)
	}
	if !almostEq(res.FleetUtilization(), 12.0/13.0) {
		t.Errorf("fleet utilization %v", res.FleetUtilization())
	}
}

func TestUtilizationCapturesIdleGap(t *testing.T) {
	// B waits on A's data via the datacenter while its own VM idles.
	w := wf.New("idle")
	a := w.AddTask("a", stoch.Dist{Mean: 100})
	early := w.AddTask("early", stoch.Dist{Mean: 10})
	b := w.AddTask("b", stoch.Dist{Mean: 50})
	w.MustAddEdge(a, b, 40)
	s := plan.New(3)
	s.ListT = []wf.TaskID{a, early, b}
	vm0 := s.AddVM(0)
	vm1 := s.AddVM(0)
	s.Assign(a, vm0)
	s.Assign(early, vm1)
	s.Assign(b, vm1)
	res, err := Run(w, testPlatform(), s, []float64{100, 10, 50})
	if err != nil {
		t.Fatal(err)
	}
	// vm1: boots 0→5, early computes 5→6, then idles until A's data is
	// at the DC (19), stages 19→23, computes 23→28. Billed 5..28 = 23,
	// busy = 1 + 9 = 10.
	vm1u := res.VMs[1]
	if !almostEq(vm1u.Busy, 10) {
		t.Errorf("vm1 busy %v, want 10", vm1u.Busy)
	}
	if u := vm1u.Busy / (vm1u.End - vm1u.Start); u > 0.5 {
		t.Errorf("vm1 utilization %v should expose the idle gap", u)
	}
}
