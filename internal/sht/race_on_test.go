//go:build race

package sht

// raceEnabled reports that this binary was built with -race, under which
// sync.Pool drops items at random and zero-allocation pins cannot hold.
const raceEnabled = true
