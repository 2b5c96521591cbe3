//go:build race

package atpg

// raceEnabled is true under the race detector, whose slowdown would take
// the reference PODEM's full fault lists past the test timeout; the
// differential tests then sample their fault lists, as under -short.
const raceEnabled = true
