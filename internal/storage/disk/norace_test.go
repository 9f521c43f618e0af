//go:build !race

package disk

// raceEnabled reports a build with the race detector (race_test.go).
const raceEnabled = false
