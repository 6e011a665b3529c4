//go:build race

package wf

// raceEnabled: the race detector's sync.Pool drops items at random, so
// the decoder's pooled scratch is sometimes rebuilt and allocation
// counts vary from call to call.
const raceEnabled = true
