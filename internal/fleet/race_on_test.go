//go:build race

package fleet

// raceEnabled reports whether the race detector is instrumenting this build.
const raceEnabled = true
