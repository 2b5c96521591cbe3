//go:build race

package hlts

// raceEnabled is true under the race detector, whose slowdown would take
// the 1200-fault supplementary campaigns past the test timeout.
const raceEnabled = true
