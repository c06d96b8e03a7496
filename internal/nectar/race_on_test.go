//go:build race

package nectar

// raceEnabled reports that the race detector is on: it makes sync.Pool
// drop a share of what it is handed, so pins on pooled paths skip.
const raceEnabled = true
