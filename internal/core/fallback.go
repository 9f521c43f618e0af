package core

import (
	"fmt"
	"math"

	"odbgc/internal/gc"
)

// FallbackEstimator wraps a primary estimator with a simpler fallback (the
// intended pairing is FGS/HB over CGS/CB) and degrades gracefully when the
// primary's signal becomes unusable: NaN, infinite, negative, or physically
// impossible (more garbage than the database holds). After TripAfter
// consecutive bad primary readings the wrapper switches to the fallback;
// after RecoverAfter consecutive good readings it switches back. Both
// estimators observe every collection throughout, so whichever is active has
// current behavior metrics.
//
// This is the graceful-degradation half of the fault-injection story: a
// chaos-wrapped estimator (see package fault) can drop out mid-run and SAGA
// keeps regulating off the coarse signal instead of wedging.
type FallbackEstimator struct {
	primary  Estimator
	fallback Estimator

	// TripAfter and RecoverAfter are the consecutive-sample thresholds.
	tripAfter    int
	recoverAfter int

	st fallbackState
}

// NewFallbackEstimator wraps primary with fallback. tripAfter and
// recoverAfter default to 1 and 3 when zero.
func NewFallbackEstimator(primary, fallback Estimator, tripAfter, recoverAfter int) (*FallbackEstimator, error) {
	if primary == nil || fallback == nil {
		return nil, fmt.Errorf("core: fallback estimator requires both a primary and a fallback")
	}
	if tripAfter < 0 || recoverAfter < 0 {
		return nil, fmt.Errorf("core: fallback thresholds must be >= 0")
	}
	if tripAfter == 0 {
		tripAfter = 1
	}
	if recoverAfter == 0 {
		recoverAfter = 3
	}
	return &FallbackEstimator{
		primary:      primary,
		fallback:     fallback,
		tripAfter:    tripAfter,
		recoverAfter: recoverAfter,
	}, nil
}

// Name implements Estimator.
func (e *FallbackEstimator) Name() string {
	return fmt.Sprintf("fallback(%s->%s)", e.primary.Name(), e.fallback.Name())
}

// Tripped reports whether the wrapper is currently serving the fallback.
func (e *FallbackEstimator) Tripped() bool { return e.st.Tripped }

// Trips returns how many times the primary signal was abandoned.
func (e *FallbackEstimator) Trips() uint64 { return e.st.Trips }

// Recoveries returns how many times the primary signal was re-adopted.
func (e *FallbackEstimator) Recoveries() uint64 { return e.st.Recoveries }

// Primary returns the wrapped primary estimator.
func (e *FallbackEstimator) Primary() Estimator { return e.primary }

// Fallback returns the wrapped fallback estimator.
func (e *FallbackEstimator) Fallback() Estimator { return e.fallback }

// ObserveCollection implements Estimator: both wrapped estimators see every
// collection so the inactive one stays warm.
func (e *FallbackEstimator) ObserveCollection(h HeapState, res gc.CollectionResult) {
	e.primary.ObserveCollection(h, res)
	e.fallback.ObserveCollection(h, res)
}

// usableSignal reports whether v is a physically meaningful garbage estimate
// for the database state h.
func usableSignal(v float64, h HeapState) bool {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return false
	}
	if db := float64(h.DatabaseBytes()); db > 0 && v > db {
		return false
	}
	return true
}

// EstimateGarbage implements Estimator with the trip/recover state machine.
// A bad primary reading is never served, even before the trip threshold: the
// threshold only governs when the wrapper commits to fallback mode (and stays
// there through RecoverAfter good readings); isolated dropouts are papered
// over with the fallback's value sample by sample.
func (e *FallbackEstimator) EstimateGarbage(h HeapState) float64 {
	p := e.primary.EstimateGarbage(h)
	usable := usableSignal(p, h)
	if usable {
		e.st.Bad = 0
		e.st.Good++
		if e.st.Tripped && e.st.Good >= e.recoverAfter {
			e.st.Tripped = false
			e.st.Recoveries++
		}
	} else {
		e.st.Good = 0
		e.st.Bad++
		if !e.st.Tripped && e.st.Bad >= e.tripAfter {
			e.st.Tripped = true
			e.st.Trips++
		}
	}
	if usable && !e.st.Tripped {
		return p
	}
	f := e.fallback.EstimateGarbage(h)
	if !usableSignal(f, h) {
		// Both signals gone: report zero garbage rather than poison the
		// controller; the DtMax clamp bounds the resulting interval.
		return 0
	}
	return f
}
