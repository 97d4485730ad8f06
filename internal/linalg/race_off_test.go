//go:build !race

package linalg

// raceEnabled reports that this binary was built with -race.
const raceEnabled = false
