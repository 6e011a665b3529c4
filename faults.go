package budgetwf

import (
	"budgetwf/internal/fault"
	"budgetwf/internal/online"
	"budgetwf/internal/reqerr"
	"budgetwf/internal/rng"
	"budgetwf/internal/sim"
)

// FaultSpec configures fault injection: per-category VM crash rates
// (crashes per VM-hour, exponential inter-arrival), a boot-failure
// probability, a transient task-failure probability, and the recovery
// policy applied under the budget guard. The zero value injects
// nothing.
type FaultSpec = fault.Spec

// FaultFieldError names the offending field of an invalid FaultSpec
// ("faults.bootFailProb") — the repository's one request-validation
// error type.
type FaultFieldError = reqerr.Error

// TaskStatus is the per-task outcome of a fault-injected execution.
type TaskStatus = fault.TaskStatus

// Task outcomes.
const (
	TaskDone   = fault.StatusDone
	TaskFailed = fault.StatusFailed
)

// Recovery policy names accepted by FaultSpec.Recovery.
const (
	// RecoverRetrySame reboots a replacement VM of the same category
	// after a capped exponential backoff and replays the lost tasks.
	RecoverRetrySame = "retry-same"
	// RecoverResubmitFastest resubmits lost tasks to a fresh VM of the
	// fastest category.
	RecoverResubmitFastest = "resubmit-fastest"
	// RecoverReplicate runs each recovery attempt on two VMs at once;
	// the first finisher wins and the loser is cancelled.
	RecoverReplicate = "replicate"
)

// ExecuteFaulty runs one fault-injected execution of the schedule with
// task weights sampled from their distributions, under the given
// recovery budget (0 lifts the guard). Crashed and boot-failed VM time
// stays billed; outputs already uploaded to the datacenter survive
// their VM's crash. A run the budget guard or the retry caps cut short
// degrades to a partial OnlineReport (Completed false, per-task
// TaskStatus) — it is not an error.
func ExecuteFaulty(w *Workflow, p *Platform, s *Schedule, seed uint64, spec *FaultSpec, budget float64) (*OnlineReport, error) {
	return online.ExecuteFaulty(w, p, s, sim.SampleWeights(w, rng.New(seed)), spec, budget, nil)
}
