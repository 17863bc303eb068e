//go:build !race

package codectest

// RaceEnabled reports whether the test binary was built with -race.
const RaceEnabled = false
