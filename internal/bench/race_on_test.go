//go:build race

package bench

// raceEnabled: the race detector's sync.Pool drops items at random, so
// the counts of cases that pool their scratch vary from run to run.
const raceEnabled = true
