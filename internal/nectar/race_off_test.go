//go:build !race

package nectar

const raceEnabled = false
