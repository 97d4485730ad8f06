//go:build !race

package sht

// raceEnabled reports that this binary was built with -race.
const raceEnabled = false
