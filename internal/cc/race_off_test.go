//go:build !race

package cc

// raceEnabled reports whether the race detector is instrumenting this build.
const raceEnabled = false
