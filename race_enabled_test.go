//go:build race

package heapmd

// raceEnabled reports whether the race detector is compiled in; the
// allocation-budget tests skip under it because instrumentation
// allocates on paths that are allocation-free in normal builds.
const raceEnabled = true
