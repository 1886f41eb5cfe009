//go:build race

package server

// raceEnabled reports a -race build, whose instrumentation allocates on
// its own schedule and so voids exact allocation counts.
const raceEnabled = true
