//go:build race

package harness

// raceEnabled reports that the race detector is on: it makes sync.Pool
// drop items and the compiler skip allocation fusions, so exact
// allocation pins do not hold.
const raceEnabled = true
