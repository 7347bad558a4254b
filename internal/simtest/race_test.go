//go:build race

package simtest

// raceEnabled reports whether the race detector is compiled in. Its
// instrumentation turns off the compiler's elision of the temporary in
// append(s, make([]T, n)...), so every slices.Grow allocates twice and
// allocation totals no longer measure the program itself.
const raceEnabled = true
