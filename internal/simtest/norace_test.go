//go:build !race

package simtest

// raceEnabled reports whether the race detector is compiled in; see
// race_test.go.
const raceEnabled = false
