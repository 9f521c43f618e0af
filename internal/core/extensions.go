package core

// This file implements the two extensions the paper sketches as future work
// in §5:
//
//   - Coupled: an SAIO-style controller that consults the SAGA garbage
//     estimators to judge the cost-effectiveness of collection I/O, raising
//     its I/O spending when garbage runs above goal and lowering it when
//     collection would be a waste ("the SAIO policy could use information
//     provided by the SAGA heuristics to determine the cost-effectiveness
//     of the I/O operations being performed, and adjusting itself
//     accordingly").
//
//   - Opportunistic: a wrapper that lets any rate policy exploit quiescent
//     periods, collecting beyond the user-stated limits while the
//     application is idle ("if it appears advantageous to perform
//     collection before the interval expires (e.g., the application
//     workload drops to a quiescent state), then such opportunism can be
//     considered").

import (
	"fmt"

	"odbgc/internal/gc"
)

// CoupledConfig parameterizes the Coupled policy.
type CoupledConfig struct {
	// IOFrac is the nominal collector share of total I/O, as in SAIO.
	IOFrac float64
	// GarbFrac is the garbage goal used to judge cost-effectiveness, as in
	// SAGA.
	GarbFrac float64
	// MinFrac and MaxFrac bound the effective I/O share the controller may
	// choose. Defaults: IOFrac/4 and min(4*IOFrac, 0.9).
	MinFrac, MaxFrac float64
	// InitialInterval bootstraps like SAIO's. Defaults to 100 if zero.
	InitialInterval uint64
}

// Validate checks the configuration.
func (c CoupledConfig) Validate() error {
	if c.IOFrac <= 0 || c.IOFrac >= 1 {
		return fmt.Errorf("core: coupled IOFrac %.4f must be in (0,1)", c.IOFrac)
	}
	if c.GarbFrac <= 0 || c.GarbFrac >= 1 {
		return fmt.Errorf("core: coupled GarbFrac %.4f must be in (0,1)", c.GarbFrac)
	}
	if c.MinFrac < 0 || c.MaxFrac < 0 || c.MinFrac >= 1 || c.MaxFrac >= 1 {
		return fmt.Errorf("core: coupled frac bounds [%.4f,%.4f] must be in [0,1)", c.MinFrac, c.MaxFrac)
	}
	if c.MinFrac != 0 && c.MaxFrac != 0 && c.MinFrac > c.MaxFrac {
		return fmt.Errorf("core: coupled MinFrac %.4f > MaxFrac %.4f", c.MinFrac, c.MaxFrac)
	}
	return nil
}

func (c *CoupledConfig) applyDefaults() {
	if c.MinFrac == 0 {
		c.MinFrac = c.IOFrac / 4
	}
	if c.MaxFrac == 0 {
		c.MaxFrac = 4 * c.IOFrac
		if c.MaxFrac > 0.9 {
			c.MaxFrac = 0.9
		}
	}
	if c.InitialInterval == 0 {
		c.InitialInterval = 100
	}
}

// Coupled is the §5 coupling of SAIO and SAGA: it schedules like SAIO, but
// after each collection it scales its effective I/O share by garbage
// pressure — the ratio of estimated garbage to the garbage goal — so that
// I/O is spent where it is cost-effective:
//
//	effFrac = clamp(IOFrac · ActGarb_est/TargetGarb, MinFrac, MaxFrac)
//	ΔAppIO  = CurrGCIO · (1 − effFrac)/effFrac
//
// With garbage at goal it behaves exactly like SAIO(IOFrac); with garbage
// piling up it spends more aggressively; with little garbage it backs off
// rather than burn I/O on empty collections.
type Coupled struct {
	cfg CoupledConfig
	est Estimator
	st  coupledState
}

// NewCoupled returns a Coupled policy using the given garbage estimator.
func NewCoupled(cfg CoupledConfig, est Estimator) (*Coupled, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if est == nil {
		return nil, fmt.Errorf("core: coupled policy requires an estimator")
	}
	cfg.applyDefaults()
	return &Coupled{cfg: cfg, est: est, st: coupledState{LastEffFrac: cfg.IOFrac}}, nil
}

// Name implements RatePolicy.
func (p *Coupled) Name() string {
	return fmt.Sprintf("coupled(io=%.0f%%,garb=%.0f%%,%s)",
		p.cfg.IOFrac*100, p.cfg.GarbFrac*100, p.est.Name())
}

// Config returns the configuration with defaults applied.
func (p *Coupled) Config() CoupledConfig { return p.cfg }

// LastEffectiveFrac returns the I/O share used for the last interval.
func (p *Coupled) LastEffectiveFrac() float64 { return p.st.LastEffFrac }

// ShouldCollect implements RatePolicy.
func (p *Coupled) ShouldCollect(now Clock) bool {
	if !p.st.Armed {
		p.st.NextAt = p.cfg.InitialInterval
		p.st.Armed = true
	}
	return now.AppIO >= p.st.NextAt
}

// AfterCollection implements RatePolicy.
func (p *Coupled) AfterCollection(now Clock, h HeapState, res gc.CollectionResult) {
	p.st.Armed = true
	p.est.ObserveCollection(h, res)
	est, usable := sanitizeEstimate(p.est.EstimateGarbage(h))
	target := p.cfg.GarbFrac * float64(h.DatabaseBytes())

	// An unusable signal keeps the nominal share rather than ingesting NaN.
	eff := p.cfg.IOFrac
	if usable && target > 0 {
		eff = p.cfg.IOFrac * (est / target)
	}
	if eff < p.cfg.MinFrac {
		eff = p.cfg.MinFrac
	}
	if eff > p.cfg.MaxFrac {
		eff = p.cfg.MaxFrac
	}
	p.st.LastEffFrac = eff

	interval := float64(res.IO.GCIO()) * (1 - eff) / eff
	if interval < 1 {
		interval = 1
	}
	p.st.NextAt = now.AppIO + uint64(interval)
}

// IdleCollector is implemented by policies that can exploit quiescence: the
// simulator consults ShouldCollectIdle once per idle tick and collects
// while it returns true.
type IdleCollector interface {
	ShouldCollectIdle(now Clock, h HeapState) bool
}

// Opportunistic wraps any rate policy with §5's quiescence opportunism:
// during active workload it defers entirely to Inner, and during idle ticks
// it keeps collecting while the estimated garbage fraction of the database
// exceeds Floor.
type Opportunistic struct {
	inner RatePolicy
	est   Estimator
	floor float64
}

// NewOpportunistic wraps inner. floor is the garbage fraction below which
// idle collection stops (e.g. 0.02 to scrub down to 2%).
func NewOpportunistic(inner RatePolicy, est Estimator, floor float64) (*Opportunistic, error) {
	if inner == nil {
		return nil, fmt.Errorf("core: opportunistic wrapper requires an inner policy")
	}
	if est == nil {
		return nil, fmt.Errorf("core: opportunistic wrapper requires an estimator")
	}
	if floor < 0 || floor >= 1 {
		return nil, fmt.Errorf("core: opportunistic floor %.4f must be in [0,1)", floor)
	}
	return &Opportunistic{inner: inner, est: est, floor: floor}, nil
}

// Name implements RatePolicy.
func (p *Opportunistic) Name() string {
	return fmt.Sprintf("opportunistic(%s,floor=%.0f%%)", p.inner.Name(), p.floor*100)
}

// Inner returns the wrapped policy.
func (p *Opportunistic) Inner() RatePolicy { return p.inner }

// ShouldCollect implements RatePolicy by deferring to the inner policy.
func (p *Opportunistic) ShouldCollect(now Clock) bool { return p.inner.ShouldCollect(now) }

// AfterCollection implements RatePolicy: the inner policy sees every
// collection, including opportunistic ones, so its own schedule stays
// consistent with the work already done.
func (p *Opportunistic) AfterCollection(now Clock, h HeapState, res gc.CollectionResult) {
	p.est.ObserveCollection(h, res)
	p.inner.AfterCollection(now, h, res)
}

// ShouldCollectIdle implements IdleCollector: keep collecting while the
// estimated garbage share exceeds the floor.
func (p *Opportunistic) ShouldCollectIdle(now Clock, h HeapState) bool {
	db := h.DatabaseBytes()
	if db <= 0 {
		return false
	}
	est, usable := sanitizeEstimate(p.est.EstimateGarbage(h))
	if !usable {
		return false
	}
	return est/float64(db) > p.floor
}
