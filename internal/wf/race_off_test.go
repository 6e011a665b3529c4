//go:build !race

package wf

const raceEnabled = false
