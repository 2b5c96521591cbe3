//go:build !race

package logicsim_test

const raceEnabled = false
