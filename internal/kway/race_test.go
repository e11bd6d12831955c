//go:build race

package kway_test

// raceEnabled reports whether the race detector is active: its runtime
// allocates on its own account, so allocation bounds do not apply.
const raceEnabled = true
