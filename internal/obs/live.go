package obs

import (
	"sync"

	"odbgc/internal/core"
)

// Status is the run-status document the HTTP endpoint serves: live progress
// in simulated time, updated by the Live observer as events arrive.
type Status struct {
	Running     bool       `json:"running"`
	Policy      string     `json:"policy"`
	Selection   string     `json:"selection"`
	Phase       string     `json:"phase"`
	Step        int        `json:"events_consumed"`
	Collections int        `json:"collections"`
	Clock       core.Clock `json:"clock"`
	// AchievedGarbageFrac and TargetGarbageFrac compare the controller's
	// achieved garbage share against its target as of the last collection.
	AchievedGarbageFrac Float `json:"achieved_garbage_frac"`
	TargetGarbageFrac   Float `json:"target_garbage_frac"`
	// AchievedGCIOFrac is cumulative collector I/O over total I/O.
	AchievedGCIOFrac Float  `json:"achieved_gc_io_frac"`
	ReclaimedBytes   uint64 `json:"reclaimed_bytes"`
	// Draining is true once graceful shutdown has begun: no new work is
	// scheduled and in-flight runs are finishing.
	Draining bool `json:"draining"`
}

// Live is an Observer that folds events into a metrics Registry and a
// queryable Status snapshot — the backing store for the /metrics and
// /statusz HTTP endpoints of a serving run, which sends run_start, decision,
// collection and progress events; it ignores the rest. Every method locks,
// so a scraper may read while the engine writes. Its metrics are named
// odbgc_control_* (the controller's loop: steps, decisions and their inputs
// and outputs), odbgc_heap_* (the database it controls) and odbgc_gc_* (the
// collections it runs); a server adds odbgc_server_* beside them.
type Live struct {
	reg *Registry

	steps, decisions                                 *Counter
	collections, reclaimed                           *Counter
	estimatedFrac, targetFrac, gcIOFrac, appIO, gcIO *Gauge
	dbBytes, garbageBytes, garbageFrac               *Gauge
	draining                                         *Gauge
	interval, yield, collectionIO                    *Histogram

	mu       sync.Mutex
	st       Status
	lastStep int // high-water mark backing the steps counter
}

// NewLive builds a Live observer over a fresh registry with the standard
// control-loop metrics declared.
func NewLive() *Live {
	r := NewRegistry()
	return &Live{
		reg:           r,
		steps:         r.NewCounter("odbgc_control_steps_total", "application trace events consumed"),
		decisions:     r.NewCounter("odbgc_control_decisions_total", "policy decisions (collection attempts) taken"),
		estimatedFrac: r.NewGauge("odbgc_control_estimated_garbage_fraction", "estimator's garbage fraction at the last collection"),
		targetFrac:    r.NewGauge("odbgc_control_target_garbage_fraction", "policy's target garbage fraction at the last collection"),
		gcIOFrac:      r.NewGauge("odbgc_control_gc_io_fraction", "cumulative collector I/O over total I/O"),
		appIO:         r.NewGauge("odbgc_control_app_io_ops", "cumulative application I/O operations"),
		gcIO:          r.NewGauge("odbgc_control_gc_io_ops", "cumulative collector I/O operations"),
		interval:      r.NewHistogram("odbgc_control_interval_overwrites", "overwrites between consecutive collections", 0, 2000, 20),
		dbBytes:       r.NewGauge("odbgc_heap_database_bytes", "database size in bytes (live plus garbage)"),
		garbageBytes:  r.NewGauge("odbgc_heap_garbage_bytes", "unreclaimed garbage bytes"),
		garbageFrac:   r.NewGauge("odbgc_heap_garbage_fraction", "garbage as a fraction of database size"),
		collections:   r.NewCounter("odbgc_gc_collections_total", "garbage collections completed"),
		reclaimed:     r.NewCounter("odbgc_gc_reclaimed_bytes_total", "bytes reclaimed by the collector"),
		yield:         r.NewHistogram("odbgc_gc_yield_bytes", "bytes reclaimed per collection", 0, 100_000, 20),
		collectionIO:  r.NewHistogram("odbgc_gc_collection_io_ops", "collector I/O operations per collection", 0, 400, 20),
		draining:      r.NewGauge("odbgc_server_draining", "1 while graceful shutdown is draining in-flight work"),
	}
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
	l.draining.Set(v)
}

// Draining reports whether graceful shutdown has begun.
func (l *Live) Draining() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st.Draining
}

// advanceStep moves the event cursor forward, advancing the monotone
// steps counter by the delta (events carry absolute cursors).
func (l *Live) advanceStep(step int) {
	if step > l.lastStep {
		l.steps.Add(float64(step - l.lastStep))
		l.lastStep = step
	}
	l.st.Step = step
}

func (l *Live) setClock(c core.Clock) {
	l.st.Clock = c
	l.appIO.Set(float64(c.AppIO))
	l.gcIO.Set(float64(c.GCIO))
	if tot := c.AppIO + c.GCIO; tot > 0 {
		frac := float64(c.GCIO) / float64(tot)
		l.st.AchievedGCIOFrac = Float(frac)
		l.gcIOFrac.Set(frac)
	}
}

// Observe implements Observer: it folds the envelope's payload into the
// status and the metrics under one lock.
func (l *Live) Observe(e Envelope) {
	l.mu.Lock()
	defer l.mu.Unlock()
	switch {
	case e.RunStart != nil:
		l.st.Running = true
		l.st.Policy = e.RunStart.Policy
		l.st.Selection = e.RunStart.Selection
	case e.Decision != nil:
		d := e.Decision
		l.advanceStep(d.Step)
		l.setClock(d.Clock)
		l.decisions.Add(1)
		l.dbBytes.Set(float64(d.DBBytes))
		l.garbageBytes.Set(float64(d.GarbageBytes))
	case e.Collection != nil:
		c := e.Collection
		l.advanceStep(c.Step)
		l.st.Collections = c.Index
		l.st.Phase = c.Phase
		l.st.AchievedGarbageFrac = c.GarbageFrac
		l.st.TargetGarbageFrac = c.TargetFrac
		l.st.ReclaimedBytes += uint64(c.ReclaimedBytes)
		l.setClock(c.Clock)

		l.collections.Add(1)
		l.reclaimed.Add(float64(c.ReclaimedBytes))
		l.dbBytes.Set(float64(c.DBBytes))
		l.garbageBytes.Set(float64(c.GarbageBytes))
		l.garbageFrac.Set(float64(c.GarbageFrac))
		l.estimatedFrac.Set(float64(c.EstimatedFrac))
		l.targetFrac.Set(float64(c.TargetFrac))
		l.interval.Observe(float64(c.Interval))
		l.yield.Observe(float64(c.ReclaimedBytes))
		l.collectionIO.Observe(float64(c.IO.GCReads + c.IO.GCWrites))
	case e.Progress != nil:
		p := e.Progress
		l.advanceStep(p.Step)
		l.st.Collections = p.Collections
		l.st.Phase = p.Phase
		l.setClock(p.Clock)
	}
}
