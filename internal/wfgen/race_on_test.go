//go:build race

package wfgen

// raceEnabled: the race detector instruments allocations, so counts
// taken under it say nothing about the program.
const raceEnabled = true
