//go:build !race

package codectest

const raceEnabled = false
