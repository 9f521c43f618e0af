// Package sched exercises the detrand-transitive chain search: forbidden
// endpoints reached through one and two call hops, a sink silenced by a
// reasoned allow, and pure code that must stay silent.
package sched

import (
	"math/rand"
	"time"
)

// wallClock makes the direct forbidden call. The direct call is detrand's
// finding, not this analyzer's — chains here start at length one.
func wallClock() int64 {
	return time.Now().UnixNano() // want "time.Now reads the wall clock"
}

func viaHelper() int64 {
	return wallClock() // want "reaches time.Now \\(wall clock\\) at .* via wallClock"
}

func Schedule() int64 {
	return viaHelper() // want "reaches time.Now \\(wall clock\\) at .* via viaHelper -> wallClock"
}

func roll() int {
	return rand.Intn(6) // want "call to global rand.Intn"
}

func Jitter() int {
	return roll() // want "reaches rand.Intn \\(unseeded randomness\\) at .* via roll"
}

// Seeded draws from a generator the caller seeded: legal everywhere.
func Seeded(r *rand.Rand) int {
	return seededRoll(r)
}

func seededRoll(r *rand.Rand) int {
	return r.Intn(6)
}

// guardTimer's wall-clock read carries a reasoned allow, so no chain that
// ends here is a finding.
func guardTimer() time.Time {
	//lint:allow detrand watchdog deadline is wall-clock by design
	return time.Now()
}

func Guard() time.Time {
	return guardTimer()
}
