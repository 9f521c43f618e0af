package server

import (
	"fmt"

	"odbgc/internal/obs"
	"odbgc/internal/simerr"
	"odbgc/internal/storage/disk"
)

// Serving-mode metric names, registered alongside the simulator metrics on
// the same obs.Registry so one /metrics scrape covers the whole process.
const (
	MetricSessionsActive    = "odbgc_server_sessions_active"
	MetricSessionsTotal     = "odbgc_server_sessions_total"
	MetricShed              = "odbgc_server_shed_total"
	MetricRequests          = "odbgc_server_requests_total"
	MetricInflight          = "odbgc_server_requests_inflight"
	MetricMalformed         = "odbgc_server_malformed_total"
	MetricIdleReaped        = "odbgc_server_idle_reaped_total"
	MetricExpired           = "odbgc_server_expired_total"
	MetricBreakerState      = "odbgc_server_breaker_state"
	MetricBreakerTrips      = "odbgc_server_breaker_trips_total"
	MetricBreakerRecoveries = "odbgc_server_breaker_recoveries_total"
	MetricLatency           = "odbgc_server_request_latency_ms"

	// Per-stage latency histograms (tracing layer); each bucket carries a
	// span-ID exemplar so a scrape links straight into /debug/traces.
	MetricStageAccept  = "odbgc_server_stage_accept_ms"
	MetricStageDecode  = "odbgc_server_stage_decode_ms"
	MetricStageQueue   = "odbgc_server_stage_queue_wait_ms"
	MetricStageService = "odbgc_server_stage_service_ms"
	MetricStageWrite   = "odbgc_server_stage_write_ms"
	MetricGCPause      = "odbgc_server_gc_pause_ms"

	// Durability layer (only emitted when the server runs with -data-dir).
	MetricDurableCommits     = "odbgc_server_durable_commits_total"
	MetricDurableCheckpoints = "odbgc_server_durable_checkpoints_total"
	MetricRecoveryRecords    = "odbgc_server_recovery_records_replayed"
	MetricRecoveryBatches    = "odbgc_server_recovery_batches_replayed"
	MetricRecoveryObjects    = "odbgc_server_recovery_objects"
	MetricRecoveryOpenMs     = "odbgc_server_recovery_open_ms"
	MetricRecoveryRebuildMs  = "odbgc_server_recovery_rebuild_ms"
	MetricRecoveryTornTail   = "odbgc_server_recovery_torn_tail"
	MetricRecoveryFallback   = "odbgc_server_recovery_meta_fallback"
)

// ErrorMetric is the per-class failed-request counter name for a simerr
// class: odbgc_server_errors_<class>_total. The registry has no label
// support, so each class gets its own flat metric.
func ErrorMetric(class simerr.Class) string {
	return fmt.Sprintf("odbgc_server_errors_%s_total", class)
}

// Metrics folds serving-path events into a registry. A nil *Metrics is a
// valid no-op sink, so tests can wire components without observability.
type Metrics struct {
	reg *obs.Registry
}

// NewMetrics registers the serving-mode metrics on reg and returns the
// sink. Registering the same names twice is an error only inside the
// registry; names here are compile-time constants, so registration cannot
// fail.
func NewMetrics(reg *obs.Registry) *Metrics {
	counters := []struct{ name, help string }{
		{MetricSessionsTotal, "client sessions accepted"},
		{MetricShed, "requests refused by admission control"},
		{MetricRequests, "requests admitted and executed"},
		{MetricMalformed, "malformed frames received"},
		{MetricIdleReaped, "sessions closed by the idle reaper"},
		{MetricExpired, "admitted requests dropped because their deadline passed in queue"},
		{MetricBreakerTrips, "estimator circuit breaker trips"},
		{MetricBreakerRecoveries, "estimator circuit breaker recoveries"},
		{MetricDurableCommits, "WAL batches committed by the durability backend"},
		{MetricDurableCheckpoints, "checkpoints taken by the durability backend"},
	}
	for _, c := range counters {
		_ = reg.RegisterCounter(c.name, c.help)
	}
	gauges := []struct{ name, help string }{
		{MetricSessionsActive, "client sessions currently open"},
		{MetricInflight, "requests admitted and not yet answered"},
		{MetricBreakerState, "estimator breaker state: 0 closed, 1 half-open, 2 open"},
		{MetricRecoveryRecords, "WAL records replayed by crash recovery at boot"},
		{MetricRecoveryBatches, "WAL batches replayed by crash recovery at boot"},
		{MetricRecoveryObjects, "objects rebuilt from the durable store at boot"},
		{MetricRecoveryOpenMs, "wall-clock milliseconds disk.Open took at boot: checkpoint load, WAL replay, digest"},
		{MetricRecoveryRebuildMs, "wall-clock milliseconds rebuilding the live heap from the recovered state took at boot"},
		{MetricRecoveryTornTail, "1 when recovery trimmed a torn WAL tail, else 0"},
		{MetricRecoveryFallback, "1 when a checkpoint meta page or the newer image was damaged and the other slot's checkpoint served, else 0"},
	}
	for _, g := range gauges {
		_ = reg.RegisterGauge(g.name, g.help)
	}
	_ = reg.RegisterHistogram(MetricLatency, "request latency from admission to response, milliseconds", 0, 1000, 20)
	stages := []struct{ name, help string }{
		{MetricStageAccept, "connection accept to first frame arrival, milliseconds"},
		{MetricStageDecode, "frame arrival to decoded request, milliseconds"},
		{MetricStageQueue, "admission-queue wait, milliseconds"},
		{MetricStageService, "engine service time, milliseconds"},
		{MetricStageWrite, "response frame write, milliseconds"},
	}
	for _, s := range stages {
		_ = reg.RegisterHistogram(s.name, s.help, 0, 1000, 20)
	}
	// A pause is about 0.1 ms: forty 50 µs buckets resolve it, and the
	// overflow bucket still catches a pathological one.
	_ = reg.RegisterHistogram(MetricGCPause, "online collection pause, milliseconds", 0, 2, 40)
	for _, class := range simerr.FailureClasses() {
		_ = reg.RegisterCounter(ErrorMetric(class),
			fmt.Sprintf("requests that failed with class %s", class))
	}
	return &Metrics{reg: reg}
}

// Registry returns the underlying registry, or nil for the no-op sink.
func (m *Metrics) Registry() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

func (m *Metrics) add(name string, v float64) {
	if m != nil {
		m.reg.Add(name, v)
	}
}

// move shifts a gauge that is counted in and out.
func (m *Metrics) move(name string, delta float64) {
	if m != nil {
		m.reg.AddGauge(name, delta)
	}
}

func (m *Metrics) set(name string, v float64) {
	if m != nil {
		m.reg.Set(name, v)
	}
}

// SessionStart counts an accepted session.
func (m *Metrics) SessionStart() {
	m.add(MetricSessionsTotal, 1)
	m.move(MetricSessionsActive, 1)
}

// SessionEnd retires a session.
func (m *Metrics) SessionEnd() { m.move(MetricSessionsActive, -1) }

// Shed counts an admission refusal.
func (m *Metrics) Shed() { m.add(MetricShed, 1) }

// RequestStart counts an admitted request entering execution.
func (m *Metrics) RequestStart() {
	m.add(MetricRequests, 1)
	m.move(MetricInflight, 1)
}

// RequestEnd retires an admitted request, recording its latency.
func (m *Metrics) RequestEnd(latencyMs float64) {
	m.move(MetricInflight, -1)
	if m != nil {
		m.reg.Observe(MetricLatency, latencyMs)
	}
}

// Stage records one stage-latency sample with a span-ID exemplar (0 when
// tracing is off, which drops only the exemplar, never the sample). Called
// from the engine loop: it must stay allocation-free.
func (m *Metrics) Stage(name string, ms float64, spanID uint64) {
	if m != nil {
		m.reg.ObserveExemplar(name, ms, spanID)
	}
}

// Malformed counts a protocol violation.
func (m *Metrics) Malformed() { m.add(MetricMalformed, 1) }

// IdleReaped counts a session closed for inactivity.
func (m *Metrics) IdleReaped() { m.add(MetricIdleReaped, 1) }

// Expired counts an admitted request dropped unexecuted because its
// deadline passed while queued.
func (m *Metrics) Expired() { m.add(MetricExpired, 1) }

// Error counts a failed request under its simerr class.
func (m *Metrics) Error(class simerr.Class) { m.add(ErrorMetric(class), 1) }

// DurableCommit counts one committed WAL batch.
func (m *Metrics) DurableCommit() { m.add(MetricDurableCommits, 1) }

// DurableCheckpoint counts one completed checkpoint.
func (m *Metrics) DurableCheckpoint() { m.add(MetricDurableCheckpoints, 1) }

// RecoveryObserve publishes what crash recovery did at boot, so a scrape
// after a SIGKILL restart shows how much WAL was replayed, how long each half
// of the boot took (opening the store, and rebuilding the heap from it), and
// whether a torn WAL tail was trimmed or the other checkpoint slot served.
func (m *Metrics) RecoveryObserve(info *disk.RecoveryInfo, openMs, rebuildMs float64) {
	if m == nil {
		return
	}
	m.set(MetricRecoveryRecords, float64(info.RecordsReplayed))
	m.set(MetricRecoveryBatches, float64(info.BatchesReplayed))
	m.set(MetricRecoveryObjects, float64(info.Objects))
	m.set(MetricRecoveryOpenMs, openMs)
	m.set(MetricRecoveryRebuildMs, rebuildMs)
	m.set(MetricRecoveryTornTail, flag(info.TornTail))
	m.set(MetricRecoveryFallback, flag(info.MetaFallback))
}

// flag is a boolean as a 0/1 gauge value.
func flag(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// BreakerObserve publishes the breaker's current state and cumulative
// trip/recovery counters (counters are set as totals via gauge-style
// deltas computed by the caller; the breaker reports monotone values, so
// the metrics layer stores the difference).
func (m *Metrics) BreakerObserve(state BreakerState, trips, recoveries uint64) {
	if m == nil {
		return
	}
	m.set(MetricBreakerState, float64(state))
	// Counters must only move forward; compute the delta from what the
	// registry already holds.
	if cur := m.reg.Counter(MetricBreakerTrips); float64(trips) > cur {
		m.add(MetricBreakerTrips, float64(trips)-cur)
	}
	if cur := m.reg.Counter(MetricBreakerRecoveries); float64(recoveries) > cur {
		m.add(MetricBreakerRecoveries, float64(recoveries)-cur)
	}
}
