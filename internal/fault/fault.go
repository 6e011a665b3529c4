// Package fault models the failures real IaaS platforms inject into a
// workflow execution and that the paper's model abstracts away:
// crash-stop VM failures, failed boots, and transient task failures.
//
// The package deliberately contains no execution logic. It defines
//
//   - Spec, the JSON-serializable description of a fault environment
//     (crash rate λ per hour per category, boot-failure probability,
//     transient task-failure probability, a seed), shared by
//     cmd/simulate and budgetwfd's /v1/simulate;
//   - Model / VMTrace, the sampling interface the failure-aware
//     executor in internal/online consumes, so the engine stays
//     fault-agnostic (a zero-rate model reproduces internal/sim
//     bit-for-bit — a property test enforces it);
//   - Recovery, the policy applied when a failure strikes: RetrySame
//     (reboot the same category with capped exponential backoff),
//     ResubmitFastest (fresh fastest-category VM), or Replicate
//     (both at once, first finisher wins per task).
//
// Fault traces are sampled from internal/rng streams derived from the
// spec seed and the VM provisioning index, so a trace is a pure
// function of (spec, provisioning order): identical seeds yield
// identical crashes and identical recovery decisions across runs.
package fault

import (
	"math"

	"budgetwf/internal/reqerr"
)

// Spec is the wire- and CLI-facing description of a fault environment.
// The zero value means "no faults".
type Spec struct {
	// CrashRatePerHour is λ: the rate of the exponential crash-stop
	// process per hour of VM uptime (measured from boot completion).
	// One value broadcasts to every VM category; otherwise provide one
	// rate per category.
	CrashRatePerHour []float64 `json:"crashRatePerHour,omitempty"`
	// BootFailProb is the probability that one VM boot attempt fails.
	// The failure is detected when the boot delay elapses: the boot
	// time is lost (and delays every queued task) but only the
	// category's setup fee is billed, matching the uncharged t_boot.
	BootFailProb float64 `json:"bootFailProb,omitempty"`
	// TaskFailProb is the probability that one task execution fails
	// transiently at the instant it would complete. The compute time
	// is wasted — and billed, the VM stayed up — and the task is
	// retried in place.
	TaskFailProb float64 `json:"taskFailProb,omitempty"`
	// Seed decorrelates the fault trace from the task-weight draws.
	Seed uint64 `json:"seed,omitempty"`
	// Recovery names the recovery policy: "retry-same" (default),
	// "resubmit-fastest", or "replicate".
	Recovery string `json:"recovery,omitempty"`
	// MaxRetries bounds how many times one task may be re-run after
	// failures before it is declared permanently failed; 0 means 3.
	MaxRetries int `json:"maxRetries,omitempty"`
	// RebootBackoffSec is the base delay before a RetrySame/Replicate
	// reboot; it doubles with every consecutive retry of the same
	// task, capped at MaxBackoffSec. Zero means 0 s (immediate).
	RebootBackoffSec float64 `json:"rebootBackoffSec,omitempty"`
	// MaxBackoffSec caps the exponential reboot backoff; 0 means 16×
	// the base.
	MaxBackoffSec float64 `json:"maxBackoffSec,omitempty"`
}

// fieldErrf is a scalar-domain violation of one Spec field, rooted at
// the "faults" key every request body and CLI carries the spec under.
func fieldErrf(field, format string, args ...any) error {
	return reqerr.Invalid("faults."+field, format, args...)
}

// IsZero reports whether the spec injects no faults at all (every rate
// and probability zero), in which case the failure-aware executor is
// exactly internal/sim.
func (s *Spec) IsZero() bool {
	if s == nil {
		return true
	}
	for _, r := range s.CrashRatePerHour {
		if r != 0 {
			return false
		}
	}
	return s.BootFailProb == 0 && s.TaskFailProb == 0
}

// Validate checks every field against the platform's category count.
// Errors are *reqerr.Error values naming the offending field.
func (s *Spec) Validate(numCategories int) error {
	if s == nil {
		return nil
	}
	if len(s.CrashRatePerHour) > 1 && len(s.CrashRatePerHour) != numCategories {
		return fieldErrf("crashRatePerHour", "need 1 or %d rates, got %d", numCategories, len(s.CrashRatePerHour))
	}
	for i, r := range s.CrashRatePerHour {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return fieldErrf("crashRatePerHour", "rate %d must be a finite non-negative number, got %v", i, r)
		}
	}
	if s.BootFailProb < 0 || s.BootFailProb >= 1 || math.IsNaN(s.BootFailProb) {
		return fieldErrf("bootFailProb", "must be in [0, 1), got %v", s.BootFailProb)
	}
	if s.TaskFailProb < 0 || s.TaskFailProb >= 1 || math.IsNaN(s.TaskFailProb) {
		return fieldErrf("taskFailProb", "must be in [0, 1), got %v", s.TaskFailProb)
	}
	if s.Recovery != "" {
		if _, err := ParseRecoveryKind(s.Recovery); err != nil {
			return fieldErrf("recovery", "%v", err)
		}
	}
	if s.MaxRetries < 0 || s.MaxRetries > 64 {
		return fieldErrf("maxRetries", "must be in [0, 64], got %d", s.MaxRetries)
	}
	if s.RebootBackoffSec < 0 || math.IsNaN(s.RebootBackoffSec) || math.IsInf(s.RebootBackoffSec, 0) {
		return fieldErrf("rebootBackoffSec", "must be a finite non-negative number, got %v", s.RebootBackoffSec)
	}
	if s.MaxBackoffSec < 0 || math.IsNaN(s.MaxBackoffSec) || math.IsInf(s.MaxBackoffSec, 0) {
		return fieldErrf("maxBackoffSec", "must be a finite non-negative number, got %v", s.MaxBackoffSec)
	}
	if s.MaxBackoffSec > 0 && s.MaxBackoffSec < s.RebootBackoffSec {
		return fieldErrf("maxBackoffSec", "cap %v below base backoff %v", s.MaxBackoffSec, s.RebootBackoffSec)
	}
	return nil
}

// rateFor resolves λ for one category under the broadcast rule.
func (s *Spec) rateFor(cat int) float64 {
	switch {
	case len(s.CrashRatePerHour) == 0:
		return 0
	case len(s.CrashRatePerHour) == 1:
		return s.CrashRatePerHour[0]
	case cat >= 0 && cat < len(s.CrashRatePerHour):
		return s.CrashRatePerHour[cat]
	}
	return 0
}

// RecoveryPolicy materializes the spec's recovery configuration.
func (s *Spec) RecoveryPolicy() Recovery {
	r := Recovery{MaxRetries: s.MaxRetries, RebootBackoff: s.RebootBackoffSec, MaxBackoff: s.MaxBackoffSec}
	if s.Recovery != "" {
		r.Kind, _ = ParseRecoveryKind(s.Recovery)
	}
	return r
}
