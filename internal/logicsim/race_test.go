//go:build race

package logicsim_test

// raceEnabled is true under the race detector, whose slowdown would take
// the reference evaluator's fault lists past the test time; the
// differential tests then run their -short subset.
const raceEnabled = true
