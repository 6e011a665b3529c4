package online

import (
	"fmt"
	"math"

	"budgetwf/internal/plan"
	"budgetwf/internal/platform"
	"budgetwf/internal/sim"
	"budgetwf/internal/wf"
)

// This file is the hosting surface internal/pool uses to run many
// executions inside one shared event loop: the same engine and
// controller as Execute, with the engine's event queue externalized —
// every event goes to the host (Emit), which hands them back one at a
// time (Step) in its loop's (time, sequence) order. A host running a
// single submission thus dispatches exactly Execute's event sequence.

// Lease hands an already-booted shared-pool VM to a hosted execution
// at booking time. Age is the VM's age — seconds since its original
// boot completed — at the lease instant; billing for the hosted
// execution charges only lifetime extensions past the billing units
// already paid through that age (platform.ExtensionCost).
type Lease struct {
	Age float64
}

// Ev is one opaque pending event of a hosted execution, handed out
// through HostHooks.Emit and returned through Step. The host orders
// them; it never inspects them.
type Ev struct {
	at float64
	ev sim.Event
}

// HostHooks connects a hosted execution to its host loop. Emit is
// required; the rest are optional.
type HostHooks struct {
	// Emit receives every event the execution schedules, stamped with
	// the execution-relative instant it must dispatch at. The host
	// queues it and later returns it through Step.
	Emit func(at float64, ev Ev)
	// Acquire, when non-nil, is consulted at VM booking time: returning
	// (lease, true) substitutes an already-booted pooled VM of the
	// requested category for a fresh provision (no boot delay, no setup
	// fee, extension-only billing).
	Acquire func(cat int, at float64) (Lease, bool)
	// OnProvision observes every booking — fresh or leased — so the
	// host can charge VM counts and setup fees to the right tenant.
	// bootDone is when the VM becomes usable (the booking instant
	// itself for a leased VM).
	OnProvision func(at float64, vm, cat int, leased bool, bootDone float64)
}

// Hosted is one workflow execution driven by an external event loop.
// Not safe for concurrent use; the host serializes all calls.
type Hosted struct {
	c *controller
}

// NewHosted builds a hosted execution. Fault injection is not
// supported under a host (the shared pool's lease lifecycle and the
// crash/recovery machinery have no defined interaction yet), and the
// datacenter-contention mode is rejected exactly as Execute rejects
// it.
func NewHosted(w *wf.Workflow, p *platform.Platform, s *plan.Schedule, weights []float64, policy Policy, hooks HostHooks) (*Hosted, error) {
	if policy.Faults != nil && policy.Faults.Model != nil {
		return nil, fmt.Errorf("online: fault injection is not supported in hosted executions")
	}
	if hooks.Emit == nil {
		return nil, fmt.Errorf("online: hosted execution requires an Emit hook")
	}
	policy.Faults = nil
	c, err := newController(w, p, s, weights, policy)
	if err != nil {
		return nil, err
	}
	c.Emit = func(at float64, ev sim.Event) { hooks.Emit(at, Ev{at: at, ev: ev}) }
	if hooks.Acquire != nil {
		c.Acquire = func(cat int, at float64) (float64, bool) {
			lease, ok := hooks.Acquire(cat, at)
			return lease.Age, ok
		}
	}
	c.OnProvision = hooks.OnProvision
	return &Hosted{c: c}, nil
}

// Start performs the initial scheduling pass (booking VMs whose first
// inputs are ready), emitting the first events to the host.
func (h *Hosted) Start() { h.c.AdvanceAll() }

// Step dispatches one event previously emitted to the host. The host
// must deliver events in nondecreasing time order (its loop's order);
// a livelocked execution fails rather than spinning.
func (h *Hosted) Step(ev Ev) error { return h.c.Step(ev.at, ev.ev) }

// Settled reports whether every task has reached a terminal state.
func (h *Hosted) Settled() bool { return h.c.Settled() }

// Finish collects the Report — identical in shape and, for a lone
// submission on an empty pool, in every bit to Execute's. Call it
// exactly once, after Settled.
func (h *Hosted) Finish() *Report { return h.c.finish() }

// Release describes one VM the execution booked, for return to the
// host's pool when the execution settles. All instants are
// execution-relative.
type Release struct {
	// VM is the executor-local VM index (matching OnProvision's vm).
	VM  int
	Cat int
	// Leased reports whether the VM came from the pool; LeaseAge is
	// its age at the lease instant (0 for fresh VMs).
	Leased   bool
	LeaseAge float64
	// BookedAt is the booking instant, BootDone when the VM became
	// usable, End when its last activity (compute or upload) finished.
	BookedAt float64
	BootDone float64
	End      float64
	// AgeAtEnd is the VM's age since its original boot at End — the
	// age the pool's billing horizon is computed from.
	AgeAtEnd float64
}

// Releases lists every VM the execution actually booked, in
// provisioning order. Valid once the execution has settled.
func (h *Hosted) Releases() []Release {
	out := make([]Release, 0, len(h.c.VMs))
	for v, vm := range h.c.VMs {
		if !vm.Booked || vm.BootFailed || vm.Dead {
			continue
		}
		end := math.Max(vm.End, vm.BootDone)
		out = append(out, Release{
			VM:       v,
			Cat:      vm.Cat,
			Leased:   vm.Leased,
			LeaseAge: vm.LeaseAge,
			BookedAt: vm.BookTime,
			BootDone: vm.BootDone,
			End:      end,
			AgeAtEnd: vm.LeaseAge + (end - vm.BootDone),
		})
	}
	return out
}
