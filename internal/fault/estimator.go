package fault

import (
	"fmt"
	"math"

	"odbgc/internal/core"
	"odbgc/internal/gc"
)

// ChaosEstimator wraps a garbage estimator and corrupts its output signal:
// with configured probabilities an estimate becomes NaN (sensor dropout) or a
// uniformly random garbage value in [0, 4×database size] (sensor noise). The
// wrapped estimator still observes every collection, so its model stays warm
// while the signal path misbehaves — exactly the failure the SAGA fallback
// and sanitization paths must absorb.
type ChaosEstimator struct {
	inner       core.Estimator
	nanProb     float64
	garbageProb float64
	rng         rng
	dropped     uint64 // estimates replaced with NaN
	garbled     uint64 // estimates replaced with garbage values
}

// NewChaosEstimator wraps inner with the profile's estimator-fault rates.
func NewChaosEstimator(inner core.Estimator, p Profile, seed int64) (*ChaosEstimator, error) {
	if p.EstNaNProb < 0 || p.EstGarbageProb < 0 || p.EstNaNProb+p.EstGarbageProb > 1 {
		return nil, fmt.Errorf("fault: estimator fault probabilities %.3f+%.3f outside [0,1]",
			p.EstNaNProb, p.EstGarbageProb)
	}
	return &ChaosEstimator{
		inner:       inner,
		nanProb:     p.EstNaNProb,
		garbageProb: p.EstGarbageProb,
		rng:         newRNG(seed),
	}, nil
}

// Name implements core.Estimator.
func (c *ChaosEstimator) Name() string {
	return fmt.Sprintf("chaos(%s)", c.inner.Name())
}

// ObserveCollection implements core.Estimator; observations always reach the
// wrapped estimator untouched.
func (c *ChaosEstimator) ObserveCollection(h core.HeapState, res gc.CollectionResult) {
	c.inner.ObserveCollection(h, res)
}

// EstimateGarbage implements core.Estimator.
func (c *ChaosEstimator) EstimateGarbage(h core.HeapState) float64 {
	r := c.rng.float64()
	switch {
	case r < c.nanProb:
		c.dropped++
		return math.NaN()
	case r < c.nanProb+c.garbageProb:
		c.garbled++
		return c.rng.float64() * 4 * float64(h.DatabaseBytes())
	default:
		return c.inner.EstimateGarbage(h)
	}
}

// Dropped returns how many estimates were replaced with NaN.
func (c *ChaosEstimator) Dropped() uint64 { return c.dropped }

// Garbled returns how many estimates were replaced with garbage values.
func (c *ChaosEstimator) Garbled() uint64 { return c.garbled }
