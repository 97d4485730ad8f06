//go:build race

package linalg

// raceEnabled reports that this binary was built with -race, under which
// the bit-identity grids run a third of their alpha/beta pairs: the race
// detector slows the reference loops fifteenfold and the full grid is the
// plain run's job.
const raceEnabled = true
