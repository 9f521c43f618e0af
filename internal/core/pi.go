package core

import (
	"fmt"
	"math"

	"odbgc/internal/gc"
)

// PIConfig parameterizes the PI garbage controller.
type PIConfig struct {
	// Frac is the garbage target as a fraction of database size, as in
	// SAGA.
	Frac float64
	// Kp and Ki are the proportional and integral gains applied to the
	// normalized garbage error (estimated/target − 1). Defaults: 2.0 and
	// 0.3.
	Kp, Ki float64
	// IntegralClamp bounds the integral accumulator (anti-windup).
	// Default: 5.
	IntegralClamp float64
	// BaseInterval is the interval (in overwrites) the controller emits at
	// zero error. Default: 200.
	BaseInterval float64
	// DtMin and DtMax clamp the interval as in SAGA. Defaults: 2 and 1000.
	DtMin, DtMax uint64
	// InitialInterval bootstraps the first collection. Default: 100.
	InitialInterval uint64
}

// Validate checks the configuration.
func (c PIConfig) Validate() error {
	if c.Frac <= 0 || c.Frac >= 1 {
		return fmt.Errorf("core: PI Frac %.4f must be in (0,1)", c.Frac)
	}
	if c.Kp < 0 || c.Ki < 0 {
		return fmt.Errorf("core: PI gains must be >= 0")
	}
	if c.DtMin != 0 && c.DtMax != 0 && c.DtMin > c.DtMax {
		return fmt.Errorf("core: PI dtMin %d > dtMax %d", c.DtMin, c.DtMax)
	}
	return nil
}

func (c *PIConfig) applyDefaults() {
	if c.Kp == 0 {
		c.Kp = 2.0
	}
	if c.Ki == 0 {
		c.Ki = 0.3
	}
	if c.IntegralClamp == 0 {
		c.IntegralClamp = 5
	}
	if c.BaseInterval == 0 {
		c.BaseInterval = 200
	}
	if c.DtMin == 0 {
		c.DtMin = 2
	}
	if c.DtMax == 0 {
		c.DtMax = 1000
	}
	if c.InitialInterval == 0 {
		c.InitialInterval = 100
	}
}

// PIController is a textbook discrete PI controller over the garbage
// fraction, provided as a control-theory baseline for SAGA (the paper
// notes its policies come from control theory; this is the standard
// alternative formulation). The normalized error
//
//	e = ActGarb_est/TargetGarb − 1
//
// shrinks the inter-collection interval multiplicatively:
//
//	Δt = BaseInterval · exp(−(Kp·e + Ki·Σe))
//
// so garbage above target collects faster and garbage below target
// collects slower, with the same [DtMin, DtMax] clamp as SAGA. Unlike
// SAGA, it carries no model of garbage creation rate (no TotGarb′ slope),
// trading the paper's feed-forward term for simplicity.
type PIController struct {
	cfg PIConfig
	est Estimator
	st  piState
}

// NewPIController returns a PI garbage controller using the estimator.
func NewPIController(cfg PIConfig, est Estimator) (*PIController, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if est == nil {
		return nil, fmt.Errorf("core: PI controller requires an estimator")
	}
	cfg.applyDefaults()
	return &PIController{cfg: cfg, est: est}, nil
}

// Name implements RatePolicy.
func (p *PIController) Name() string {
	return fmt.Sprintf("pi(%.0f%%,%s)", p.cfg.Frac*100, p.est.Name())
}

// Config returns the configuration with defaults applied.
func (p *PIController) Config() PIConfig { return p.cfg }

// LastEstimate returns the estimator output at the last collection.
func (p *PIController) LastEstimate() float64 { return p.st.LastEstimate }

// LastTarget returns the target garbage bytes at the last collection.
func (p *PIController) LastTarget() float64 { return p.st.LastTarget }

// LastInterval returns the last scheduled interval in overwrites.
func (p *PIController) LastInterval() uint64 { return p.st.LastInterval }

// ShouldCollect implements RatePolicy.
func (p *PIController) ShouldCollect(now Clock) bool {
	if !p.st.Armed {
		p.st.NextAt = p.cfg.InitialInterval
		p.st.Armed = true
	}
	return now.Overwrites >= p.st.NextAt
}

// AfterCollection implements RatePolicy.
func (p *PIController) AfterCollection(now Clock, h HeapState, res gc.CollectionResult) {
	p.st.Armed = true
	p.est.ObserveCollection(h, res)
	est, usable := sanitizeEstimate(p.est.EstimateGarbage(h))
	target := p.cfg.Frac * float64(h.DatabaseBytes())
	p.st.LastEstimate = est
	p.st.LastTarget = target

	// An unusable estimator signal contributes zero error: the controller
	// coasts on its integral term instead of ingesting NaN.
	var e float64
	if usable && target > 0 {
		e = est/target - 1
	}
	p.st.Integral += e
	if p.st.Integral > p.cfg.IntegralClamp {
		p.st.Integral = p.cfg.IntegralClamp
	}
	if p.st.Integral < -p.cfg.IntegralClamp {
		p.st.Integral = -p.cfg.IntegralClamp
	}

	dt := p.cfg.BaseInterval * math.Exp(-(p.cfg.Kp*e + p.cfg.Ki*p.st.Integral))
	interval := uint64(dt)
	if dt < float64(p.cfg.DtMin) || interval < p.cfg.DtMin {
		interval = p.cfg.DtMin
	}
	if dt > float64(p.cfg.DtMax) {
		interval = p.cfg.DtMax
	}
	p.st.LastInterval = interval
	p.st.NextAt = now.Overwrites + interval
}
