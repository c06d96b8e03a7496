//go:build race

package nectar

// raceEnabled reports that the race detector is on: it multiplies
// allocation and makes sync.Pool drop a share of what it is handed, so
// allocation pins skip.
const raceEnabled = true
