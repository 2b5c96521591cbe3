//go:build !race

package hlts

const raceEnabled = false
