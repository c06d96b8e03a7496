//go:build !race

package harness

const raceEnabled = false
