package obs

import "sync"

// Metric names the Live observer maintains.
const (
	MetricEvents           = "odbgc_sim_events_total"
	MetricCollections      = "odbgc_sim_collections_total"
	MetricDecisions        = "odbgc_sim_decisions_total"
	MetricReclaimed        = "odbgc_sim_reclaimed_bytes_total"
	MetricFaults           = "odbgc_sim_faults_injected_total"
	MetricCheckpoints      = "odbgc_sim_checkpoints_total"
	MetricPhases           = "odbgc_sim_phase_transitions_total"
	MetricDBBytes          = "odbgc_sim_database_bytes"
	MetricGarbageBytes     = "odbgc_sim_garbage_bytes"
	MetricGarbageFrac      = "odbgc_sim_garbage_fraction"
	MetricEstimatedFrac    = "odbgc_sim_estimated_garbage_fraction"
	MetricTargetFrac       = "odbgc_sim_target_garbage_fraction"
	MetricGCIOFrac         = "odbgc_sim_gc_io_fraction"
	MetricAppIO            = "odbgc_sim_app_io_ops"
	MetricGCIO             = "odbgc_sim_gc_io_ops"
	MetricIntervalHist     = "odbgc_sim_collection_interval_overwrites"
	MetricYieldHist        = "odbgc_sim_collection_yield_bytes"
	MetricCollectionIOHist = "odbgc_sim_collection_io_ops"
	MetricDraining         = "odbgc_sim_draining"
)

// Status is the run-status document the HTTP endpoint serves: live progress
// in simulated time, updated by the Live observer as events arrive.
type Status struct {
	Running     bool   `json:"running"`
	Policy      string `json:"policy"`
	Selection   string `json:"selection"`
	Phase       string `json:"phase"`
	Step        int    `json:"events_consumed"`
	Collections int    `json:"collections"`
	Clock       Clock  `json:"clock"`
	// AchievedGarbageFrac and TargetGarbageFrac compare the controller's
	// achieved garbage share against its target as of the last collection.
	AchievedGarbageFrac Float `json:"achieved_garbage_frac"`
	TargetGarbageFrac   Float `json:"target_garbage_frac"`
	// AchievedGCIOFrac is cumulative collector I/O over total I/O.
	AchievedGCIOFrac Float  `json:"achieved_gc_io_frac"`
	ReclaimedBytes   uint64 `json:"reclaimed_bytes"`
	FaultsInjected   uint64 `json:"faults_injected"`
	// Draining is true once graceful shutdown has begun: no new work is
	// scheduled and in-flight runs are finishing.
	Draining bool `json:"draining"`
	// Final is set once the run has ended.
	Final *RunEnd `json:"final,omitempty"`
}

// Live is an Observer that folds events into a metrics Registry and a
// queryable Status snapshot — the backing store for the /metrics and
// /statusz HTTP endpoints. All methods lock, so a scraper may read while
// the simulation writes.
type Live struct {
	reg *Registry

	mu       sync.Mutex
	st       Status
	lastStep int // high-water mark backing the events counter
}

// NewLive builds a Live observer over a fresh registry with the standard
// simulator metrics registered.
func NewLive() *Live {
	reg := NewRegistry()
	counters := []struct{ name, help string }{
		{MetricEvents, "application trace events consumed"},
		{MetricCollections, "garbage collections completed"},
		{MetricDecisions, "policy decisions (collection attempts) taken"},
		{MetricReclaimed, "bytes reclaimed by the collector"},
		{MetricFaults, "storage faults injected"},
		{MetricCheckpoints, "checkpoints saved or resumed"},
		{MetricPhases, "application phase transitions"},
	}
	for _, c := range counters {
		// Registration of compile-time constant names cannot fail.
		_ = reg.RegisterCounter(c.name, c.help)
	}
	gauges := []struct{ name, help string }{
		{MetricDBBytes, "database size in bytes (live plus garbage)"},
		{MetricGarbageBytes, "unreclaimed garbage bytes"},
		{MetricGarbageFrac, "garbage as a fraction of database size"},
		{MetricEstimatedFrac, "estimator's garbage fraction at the last collection"},
		{MetricTargetFrac, "policy's target garbage fraction at the last collection"},
		{MetricGCIOFrac, "cumulative collector I/O over total I/O"},
		{MetricAppIO, "cumulative application I/O operations"},
		{MetricGCIO, "cumulative collector I/O operations"},
	}
	for _, g := range gauges {
		_ = reg.RegisterGauge(g.name, g.help)
	}
	_ = reg.RegisterHistogram(MetricIntervalHist, "overwrites between consecutive collections", 0, 2000, 20)
	_ = reg.RegisterHistogram(MetricYieldHist, "bytes reclaimed per collection", 0, 100_000, 20)
	_ = reg.RegisterHistogram(MetricCollectionIOHist, "collector I/O operations per collection", 0, 400, 20)
	_ = reg.RegisterGauge(MetricDraining, "1 while graceful shutdown is draining in-flight work")
	return &Live{reg: reg}
}

// Registry exposes the underlying registry (for /metrics).
func (l *Live) Registry() *Registry { return l.reg }

// Status returns a copy of the current run status.
func (l *Live) Status() Status {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st
}

// SetDraining flips the draining flag (and gauge). odbgcd sets it when the
// first interrupt arrives, so /healthz and /statusz report the shutdown to
// load balancers and operators.
func (l *Live) SetDraining(on bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.st.Draining = on
	v := 0.0
	if on {
		v = 1
	}
	l.reg.Set(MetricDraining, v)
}

// Draining reports whether graceful shutdown has begun.
func (l *Live) Draining() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st.Draining
}

// advanceStep moves the event cursor forward, advancing the monotone
// events counter by the delta (hooks carry absolute cursors).
func (l *Live) advanceStep(step int) {
	if step > l.lastStep {
		l.reg.Add(MetricEvents, float64(step-l.lastStep))
		l.lastStep = step
	}
	l.st.Step = step
}

func (l *Live) setClock(c Clock) {
	l.st.Clock = c
	l.reg.Set(MetricAppIO, float64(c.AppIO))
	l.reg.Set(MetricGCIO, float64(c.GCIO))
	if tot := c.AppIO + c.GCIO; tot > 0 {
		frac := float64(c.GCIO) / float64(tot)
		l.st.AchievedGCIOFrac = Float(frac)
		l.reg.Set(MetricGCIOFrac, frac)
	}
}

// ObserveRunStart implements Observer.
func (l *Live) ObserveRunStart(e RunStart) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.st.Running = true
	l.st.Policy = e.Policy
	l.st.Selection = e.Selection
	l.lastStep = e.Resumed
	l.st.Step = e.Resumed
}

// ObservePhase implements Observer.
func (l *Live) ObservePhase(e PhaseChange) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.st.Phase = e.Label
	l.advanceStep(e.Step)
	l.reg.Add(MetricPhases, 1)
}

// ObserveDecision implements Observer.
func (l *Live) ObserveDecision(e Decision) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.advanceStep(e.Step)
	l.setClock(e.Clock)
	l.reg.Add(MetricDecisions, 1)
	l.reg.Set(MetricDBBytes, float64(e.DBBytes))
	l.reg.Set(MetricGarbageBytes, float64(e.GarbageBytes))
}

// ObserveCollection implements Observer.
func (l *Live) ObserveCollection(e Collection) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.advanceStep(e.Step)
	l.st.Collections = e.Index
	l.st.Phase = e.Phase
	l.st.AchievedGarbageFrac = e.GarbageFrac
	l.st.TargetGarbageFrac = e.TargetFrac
	l.st.ReclaimedBytes += uint64(e.ReclaimedBytes)
	l.setClock(e.Clock)

	l.reg.Add(MetricCollections, 1)
	l.reg.Add(MetricReclaimed, float64(e.ReclaimedBytes))
	l.reg.Set(MetricDBBytes, float64(e.DBBytes))
	l.reg.Set(MetricGarbageBytes, float64(e.GarbageBytes))
	l.reg.Set(MetricGarbageFrac, float64(e.GarbageFrac))
	l.reg.Set(MetricEstimatedFrac, float64(e.EstimatedFrac))
	l.reg.Set(MetricTargetFrac, float64(e.TargetFrac))
	l.reg.Observe(MetricIntervalHist, float64(e.Interval))
	l.reg.Observe(MetricYieldHist, float64(e.ReclaimedBytes))
	l.reg.Observe(MetricCollectionIOHist, float64(e.IO.GCReads+e.IO.GCWrites))
}

// ObserveFault implements Observer.
func (l *Live) ObserveFault(e Fault) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.st.FaultsInjected++
	l.reg.Add(MetricFaults, 1)
}

// ObserveCheckpoint implements Observer.
func (l *Live) ObserveCheckpoint(e CheckpointMark) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.reg.Add(MetricCheckpoints, 1)
}

// ObserveProgress implements Observer.
func (l *Live) ObserveProgress(e Progress) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.advanceStep(e.Step)
	l.st.Collections = e.Collections
	l.st.Phase = e.Phase
	l.setClock(e.Clock)
}

// ObserveRunEnd implements Observer.
func (l *Live) ObserveRunEnd(e RunEnd) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.st.Running = false
	l.advanceStep(e.Events)
	l.st.Collections = e.Collections
	l.st.AchievedGarbageFrac = e.GarbageFrac
	l.st.AchievedGCIOFrac = e.GCIOFrac
	final := e
	l.st.Final = &final
}
