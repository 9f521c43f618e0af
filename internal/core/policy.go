// Package core implements the paper's primary contribution: collection-rate
// policies for partitioned object-database garbage collection, i.e. the
// decision of *when* to run the next collection.
//
// Three families are provided:
//
//   - FixedRate: collect every N pointer overwrites (the strawman the paper
//     shows to be unacceptable, and the policy behind Figure 1);
//   - SAIO: semi-automatic I/O policy — hold collector I/O at a requested
//     percentage of total I/O operations (§2.2);
//   - SAGA: semi-automatic garbage policy — hold database garbage at a
//     requested percentage of database size (§2.3), using a pluggable
//     garbage Estimator (§2.4).
//
// Policies observe time through a Clock with two bases: application I/O
// operations (SAIO's unit of time) and pointer overwrites (SAGA's unit of
// time; it does not advance during read-only phases, so no collections are
// scheduled when no garbage can be created).
package core

import (
	"fmt"
	"math"

	"odbgc/internal/gc"
)

// Clock is a snapshot of the simulator's cumulative counters, taken before
// each application event and after each collection. Its JSON names are the
// event log's (obs).
type Clock struct {
	AppIO      uint64 `json:"app_io"`     // cumulative application I/O operations
	GCIO       uint64 `json:"gc_io"`      // cumulative collector I/O operations
	Overwrites uint64 `json:"overwrites"` // cumulative (non-initializing) pointer overwrites
}

// HeapState is the view of the database the policies and estimators read.
// *gc.Heap implements it; tests substitute fixtures to script controller
// inputs directly.
type HeapState interface {
	// DatabaseBytes is occupied bytes, live plus garbage (SAGA's notion of
	// database size).
	DatabaseBytes() int
	// ActualGarbageBytes is the oracle's exact unreclaimed garbage.
	ActualGarbageBytes() int
	// TotalCollectedBytes is cumulative bytes reclaimed by the collector.
	TotalCollectedBytes() uint64
	// SumPartitionOverwrites is Σ_p PO(p), the FGS state total.
	SumPartitionOverwrites() int
	// NumPartitions is the allocated partition count (CGS state).
	NumPartitions() int
}

// RatePolicy decides when collections happen. The simulator consults
// ShouldCollect before applying each application event and, when it
// triggers a collection, reports the outcome through AfterCollection so the
// policy can schedule the next one.
type RatePolicy interface {
	Name() string
	// ShouldCollect reports whether a collection is due at the given time.
	ShouldCollect(now Clock) bool
	// AfterCollection informs the policy of a completed collection so it
	// can compute the next interval.
	AfterCollection(now Clock, h HeapState, res gc.CollectionResult)
}

// NeverCollect disables collection entirely: the no-GC baseline.
type NeverCollect struct{}

// Name implements RatePolicy.
func (NeverCollect) Name() string { return "never" }

// ShouldCollect implements RatePolicy.
func (NeverCollect) ShouldCollect(Clock) bool { return false }

// AfterCollection implements RatePolicy.
func (NeverCollect) AfterCollection(Clock, HeapState, gc.CollectionResult) {}

// FixedRate collects every Interval pointer overwrites — the paper's
// measure of a fixed collection rate ("a collection rate of 50, measured in
// pointer overwrites per collection"). Figure 1 sweeps Interval from 50 to
// 800.
type FixedRate struct {
	Interval uint64 // pointer overwrites between collections

	st fixedRateState
}

// NewFixedRate returns a fixed-rate policy; interval must be positive.
func NewFixedRate(interval int) (*FixedRate, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("core: fixed-rate interval %d must be positive", interval)
	}
	return &FixedRate{Interval: uint64(interval)}, nil
}

// Name implements RatePolicy.
func (p *FixedRate) Name() string { return fmt.Sprintf("fixed(%d)", p.Interval) }

// ShouldCollect implements RatePolicy.
func (p *FixedRate) ShouldCollect(now Clock) bool {
	if !p.st.Armed {
		p.st.NextAt = p.Interval
		p.st.Armed = true
	}
	return now.Overwrites >= p.st.NextAt
}

// AfterCollection implements RatePolicy.
func (p *FixedRate) AfterCollection(now Clock, _ HeapState, _ gc.CollectionResult) {
	p.st.NextAt = now.Overwrites + p.Interval
	p.st.Armed = true
}

// SAIOConfig parameterizes the SAIO policy.
type SAIOConfig struct {
	// Frac is the requested collector share of total I/O operations, in
	// (0,1). E.g. 0.10 asks for 10% of all I/O to be collection I/O.
	Frac float64
	// Hist is c_hist: how many past collections contribute measured I/O
	// history to the interval computation. 0 (the paper's default in
	// Figure 4) uses only the current collection's cost.
	Hist int
	// InitialInterval is the bootstrap: application I/O operations before
	// the first collection. Defaults to 100 if zero.
	InitialInterval uint64
}

// Validate checks the configuration.
func (c SAIOConfig) Validate() error {
	if c.Frac <= 0 || c.Frac >= 1 {
		return fmt.Errorf("core: SAIO_Frac %.4f must be in (0,1)", c.Frac)
	}
	if c.Hist < 0 {
		return fmt.Errorf("core: SAIO c_hist %d must be >= 0", c.Hist)
	}
	return nil
}

// SAIO is the semi-automatic I/O percentage policy (§2.2). After each
// collection it solves
//
//	(GCIO_hist + ΔGCIO) / (GCIO_hist + ΔGCIO + AppIO_hist + ΔAppIO) = Frac
//
// for ΔAppIO under the assumption ΔGCIO = CurrGCIO (successive collections
// cost about the same), giving
//
//	ΔAppIO = (GCIO_hist + CurrGCIO)·(1 − Frac)/Frac − AppIO_hist
//
// where the _hist sums span the last c_hist collections.
type SAIO struct {
	cfg SAIOConfig
	st  saioState
}

// NewSAIO returns a SAIO policy.
func NewSAIO(cfg SAIOConfig) (*SAIO, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.InitialInterval == 0 {
		cfg.InitialInterval = 100
	}
	return &SAIO{cfg: cfg}, nil
}

// Name implements RatePolicy.
func (p *SAIO) Name() string { return fmt.Sprintf("saio(%.0f%%)", p.cfg.Frac*100) }

// Config returns the policy configuration.
func (p *SAIO) Config() SAIOConfig { return p.cfg }

// ShouldCollect implements RatePolicy.
func (p *SAIO) ShouldCollect(now Clock) bool {
	if !p.st.Armed {
		p.st.NextAt = p.cfg.InitialInterval
		p.st.Armed = true
	}
	return now.AppIO >= p.st.NextAt
}

// AfterCollection implements RatePolicy.
func (p *SAIO) AfterCollection(now Clock, _ HeapState, res gc.CollectionResult) {
	currGCIO := res.IO.GCIO()
	appDelta := now.AppIO - p.st.LastAppIO
	p.st.LastAppIO = now.AppIO
	p.st.Armed = true

	// Maintain the c_hist window of measured per-interval costs, including
	// the collection that just finished.
	if p.cfg.Hist > 0 {
		p.st.HistApp = append(p.st.HistApp, appDelta)
		p.st.HistGC = append(p.st.HistGC, currGCIO)
		if len(p.st.HistApp) > p.cfg.Hist {
			p.st.HistApp = p.st.HistApp[1:]
			p.st.HistGC = p.st.HistGC[1:]
		}
	}
	var histApp, histGC float64
	for _, v := range p.st.HistApp {
		histApp += float64(v)
	}
	for _, v := range p.st.HistGC {
		histGC += float64(v)
	}
	// ΔAppIO = (GCIO_hist + ΔGCIO)·(1−f)/f − AppIO_hist, with the paper's
	// assumption ΔGCIO = CurrGCIO. With c_hist = 0 the history sums vanish
	// and this reduces to CurrGCIO·(1−f)/f.
	interval := (histGC+float64(currGCIO))*(1-p.cfg.Frac)/p.cfg.Frac - histApp
	if interval < 1 {
		interval = 1
	}
	p.st.NextAt = now.AppIO + uint64(interval)
}

// SAGAConfig parameterizes the SAGA policy.
type SAGAConfig struct {
	// Frac is the requested garbage share of database size, in (0,1).
	Frac float64
	// Weight buffers the TotGarb' slope estimate from rapid change; the
	// paper sets 0.7. Must be in [0,1). Defaults to 0.7 if zero.
	Weight float64
	// DtMin and DtMax clamp the computed interval in pointer overwrites;
	// the paper uses 2 and 1000. Defaults apply if zero.
	DtMin, DtMax uint64
	// InitialInterval is the bootstrap: pointer overwrites before the first
	// collection. Defaults to 100 if zero.
	InitialInterval uint64
	// SlopeRef, when positive, switches the TotGarb' smoothing to a
	// time-weighted exponential mean: the new sample's weight becomes
	// 1 − Weight^(Δt/SlopeRef), so slope samples taken over very short
	// intervals (whose noise is amplified by the 1/Δt division) contribute
	// proportionally little, and samples spanning long intervals dominate.
	// 0 keeps the paper's per-observation formula. See the churn
	// robustness experiment for the failure mode this addresses.
	SlopeRef uint64
}

// Validate checks the configuration.
func (c SAGAConfig) Validate() error {
	if c.Frac <= 0 || c.Frac >= 1 {
		return fmt.Errorf("core: SAGA_Frac %.4f must be in (0,1)", c.Frac)
	}
	if c.Weight < 0 || c.Weight >= 1 {
		return fmt.Errorf("core: SAGA weight %.4f must be in [0,1)", c.Weight)
	}
	if c.DtMin != 0 && c.DtMax != 0 && c.DtMin > c.DtMax {
		return fmt.Errorf("core: SAGA dtMin %d > dtMax %d", c.DtMin, c.DtMax)
	}
	return nil
}

func (c *SAGAConfig) applyDefaults() {
	if c.Weight == 0 {
		c.Weight = 0.7
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

// SAGA is the semi-automatic garbage percentage policy (§2.3). After each
// collection it computes the interval (in pointer overwrites) until the
// next collection as
//
//	Δt = (CurrColl − GarbDiff(t)) / TotGarb'(t)
//
// where GarbDiff = ActGarb − TargetGarb, TargetGarb = DBSize·Frac, and
// TotGarb' is an exponentially weighted slope of cumulative garbage
// creation. ActGarb comes from the configured Estimator, so estimator error
// propagates into the controller exactly as in the paper.
type SAGA struct {
	cfg SAGAConfig
	est Estimator
	st  sagaState
}

// NewSAGA returns a SAGA policy using the given estimator.
func NewSAGA(cfg SAGAConfig, est Estimator) (*SAGA, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if est == nil {
		return nil, fmt.Errorf("core: SAGA requires an estimator")
	}
	cfg.applyDefaults()
	return &SAGA{cfg: cfg, est: est}, nil
}

// Name implements RatePolicy.
func (p *SAGA) Name() string {
	return fmt.Sprintf("saga(%.0f%%,%s)", p.cfg.Frac*100, p.est.Name())
}

// Config returns the policy configuration (with defaults applied).
func (p *SAGA) Config() SAGAConfig { return p.cfg }

// Estimator returns the garbage estimator in use.
func (p *SAGA) Estimator() Estimator { return p.est }

// LastEstimate returns the estimator's garbage bytes at the last collection.
func (p *SAGA) LastEstimate() float64 { return p.st.LastEstimate }

// LastTarget returns the target garbage bytes at the last collection.
func (p *SAGA) LastTarget() float64 { return p.st.LastTarget }

// LastInterval returns the last scheduled interval in overwrites.
func (p *SAGA) LastInterval() uint64 { return p.st.LastInterval }

// ClampCounts reports how often DtMin and DtMax limited the interval; the
// paper notes the clamps are rarely needed in practice.
func (p *SAGA) ClampCounts() (min, max uint64) { return p.st.ClampedMin, p.st.ClampedMax }

// LastSlope returns the smoothed TotGarb'(t) estimate in bytes/overwrite.
func (p *SAGA) LastSlope() float64 { return p.st.Slope }

// BadSignals reports how many estimator outputs the controller rejected as
// unusable (NaN, infinite, or negative).
func (p *SAGA) BadSignals() uint64 { return p.st.BadSignals }

// sanitizeEstimate clamps an estimator output to a physically meaningful
// value: finite and non-negative. The second result reports whether the raw
// value was usable; controllers skip model updates on unusable signals so a
// dropped-out estimator cannot poison their state.
func sanitizeEstimate(est float64) (float64, bool) {
	if math.IsNaN(est) || math.IsInf(est, 0) || est < 0 {
		return 0, false
	}
	return est, true
}

// ShouldCollect implements RatePolicy.
func (p *SAGA) ShouldCollect(now Clock) bool {
	if !p.st.Armed {
		p.st.NextAt = p.cfg.InitialInterval
		p.st.Armed = true
	}
	return now.Overwrites >= p.st.NextAt
}

// AfterCollection implements RatePolicy.
func (p *SAGA) AfterCollection(now Clock, h HeapState, res gc.CollectionResult) {
	p.est.ObserveCollection(h, res)
	est, usable := sanitizeEstimate(p.est.EstimateGarbage(h))
	if !usable {
		p.st.BadSignals++
	}
	target := p.cfg.Frac * float64(h.DatabaseBytes())
	p.st.LastEstimate = est
	p.st.LastTarget = target

	// Slope of cumulative garbage creation, on the estimated series
	// TotGarb ≈ TotColl + ActGarb_est, in bytes per overwrite. An unusable
	// estimator signal contributes no slope sample — the previous smoothed
	// slope carries the controller through the dropout.
	tot := float64(h.TotalCollectedBytes()) + est
	t := now.Overwrites
	if usable {
		if p.st.HavePrev && t > p.st.PrevT {
			dt := float64(t - p.st.PrevT)
			inst := (tot - p.st.PrevTot) / dt
			if p.st.HaveSlope {
				w := p.cfg.Weight
				if p.cfg.SlopeRef > 0 {
					// Time-weighted smoothing: short intervals (noisy inst)
					// contribute little, long intervals dominate.
					w = math.Pow(p.cfg.Weight, dt/float64(p.cfg.SlopeRef))
				}
				p.st.Slope = w*p.st.Slope + (1-w)*inst
			} else {
				p.st.Slope = inst
				p.st.HaveSlope = true
			}
		}
		p.st.PrevT, p.st.PrevTot, p.st.HavePrev = t, tot, true
	}

	currColl := float64(res.ReclaimedBytes)
	garbDiff := est - target

	// Δt = (CurrColl − GarbDiff)/TotGarb', computed arithmetically: the
	// paper notes Δt "can become very large if TotGarb'(t) approaches
	// zero, or even negative" and relies on the [DtMin,DtMax] clamp.
	// A negative Δt (collection overdue) clamps to DtMin.
	var dt float64
	if p.st.HaveSlope && p.st.Slope != 0 && !math.IsNaN(p.st.Slope) && !math.IsInf(p.st.Slope, 0) {
		dt = (currColl - garbDiff) / p.st.Slope
	} else {
		// No slope information yet, or perfectly flat garbage creation:
		// nothing to extrapolate; schedule far out and let the clamp bound
		// it.
		dt = float64(p.cfg.DtMax)
	}
	if math.IsNaN(dt) {
		dt = float64(p.cfg.DtMax)
	}
	interval := uint64(0)
	switch {
	case dt < float64(p.cfg.DtMin):
		interval = p.cfg.DtMin
		p.st.ClampedMin++
	case dt > float64(p.cfg.DtMax):
		interval = p.cfg.DtMax
		p.st.ClampedMax++
	default:
		interval = uint64(dt)
		if interval < p.cfg.DtMin {
			interval = p.cfg.DtMin
		}
	}
	p.st.LastInterval = interval
	p.st.NextAt = now.Overwrites + interval
	p.st.Armed = true
}

// PolicyParams carries the knobs of every policy NewPolicy constructs; each
// policy reads its own and ignores the rest. Frac and Interval are validated
// by the policies; the other zero values mean the policy's default.
type PolicyParams struct {
	Frac            float64 // requested share: of I/O (saio), of the database (saga, pi), of both (coupled)
	Interval        int     // fixed: pointer overwrites per collection
	InitialInterval uint64  // adaptive policies: the bootstrap interval
	Hist            int     // saio: c_hist
	SlopeRef        uint64  // saga: time-weighted slope reference interval
	// Estimator builds the garbage estimator of saga, pi and coupled. It is
	// called for those policies only, so a caller that wraps the estimator
	// (a chaos shim, a circuit breaker) learns from the call that the
	// wrapper is in use.
	Estimator func() (Estimator, error)
}

// NewPolicy constructs a rate policy by name: "saio", "saga", "pi",
// "coupled", "fixed" or "never".
func NewPolicy(name string, p PolicyParams) (RatePolicy, error) {
	switch name {
	case "saio":
		return NewSAIO(SAIOConfig{Frac: p.Frac, Hist: p.Hist, InitialInterval: p.InitialInterval})
	case "fixed":
		return NewFixedRate(p.Interval)
	case "never":
		return NeverCollect{}, nil
	case "saga", "pi", "coupled":
		if p.Estimator == nil {
			return nil, fmt.Errorf("core: policy %q requires an estimator", name)
		}
		est, err := p.Estimator()
		if err != nil {
			return nil, err
		}
		switch name {
		case "pi":
			return NewPIController(PIConfig{Frac: p.Frac, InitialInterval: p.InitialInterval}, est)
		case "coupled":
			return NewCoupled(CoupledConfig{IOFrac: p.Frac, GarbFrac: p.Frac, InitialInterval: p.InitialInterval}, est)
		}
		return NewSAGA(SAGAConfig{Frac: p.Frac, SlopeRef: p.SlopeRef, InitialInterval: p.InitialInterval}, est)
	}
	return nil, fmt.Errorf("core: unknown policy %q (have saio, saga, pi, coupled, fixed, never)", name)
}
