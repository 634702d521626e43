//go:build race

package openflow

// raceEnabled reports whether the race detector instrumented this
// build; allocation pins skip under it.
const raceEnabled = true
