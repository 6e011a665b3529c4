//go:build race

package sched

// raceEnabled trims the reference-equivalence matrices: the reference
// planners allocate per candidate, which the race detector makes ~20×
// slower, and they start no goroutine for it to watch.
const raceEnabled = true
