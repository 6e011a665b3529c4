//go:build !race

package wfgen

const raceEnabled = false
