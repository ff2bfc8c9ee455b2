//go:build race

package netlink

// raceEnabled reports whether the race detector is instrumenting this build.
const raceEnabled = true
