//go:build race

package disk

// raceEnabled reports a build with the race detector, under which sync.Pool
// drops a share of its Puts on purpose: an allocation count there is not the
// program's.
const raceEnabled = true
