package server

import (
	"fmt"

	"odbgc/internal/obs"
	"odbgc/internal/simerr"
	"odbgc/internal/storage/disk"
)

// Metrics holds the serving-path metrics, declared as odbgc_server_* beside
// the control loop's on the same obs.Registry so one /metrics scrape covers
// the whole process. The engine and the sessions update its handles
// directly.
type Metrics struct {
	sessionsTotal, shed, requests, malformed *obs.Counter
	idleReaped, expired                      *obs.Counter
	breakerTrips, breakerRecoveries          *obs.Counter
	durableCommits, durableCheckpoints       *obs.Counter
	sessionsActive, inflight, breakerState   *obs.Gauge

	recoveryRecords, recoveryBatches, recoveryObjects *obs.Gauge
	recoveryOpenMs, recoveryRebuildMs                 *obs.Gauge
	recoveryTornTail, recoveryFallback                *obs.Gauge

	latency *obs.Histogram
	// Per-stage latency histograms (tracing layer); each bucket carries a
	// span-ID exemplar so a scrape links straight into /debug/traces.
	stageAccept, stageDecode, stageQueue, stageService, stageWrite *obs.Histogram
	gcPause                                                        *obs.Histogram

	// errors is the failed-request counter per simerr class,
	// odbgc_server_errors_<class>_total: the registry has no labels, so each
	// class gets its own flat metric.
	errors map[simerr.Class]*obs.Counter
}

// NewMetrics declares the serving-mode metrics on reg and returns them.
func NewMetrics(reg *obs.Registry) *Metrics {
	stage := func(name, help string) *obs.Histogram { return reg.NewHistogram(name, help, 0, 1000, 20) }
	m := &Metrics{
		sessionsTotal:      reg.NewCounter("odbgc_server_sessions_total", "client sessions accepted"),
		shed:               reg.NewCounter("odbgc_server_shed_total", "requests refused by admission control"),
		requests:           reg.NewCounter("odbgc_server_requests_total", "requests admitted and executed"),
		malformed:          reg.NewCounter("odbgc_server_malformed_total", "malformed frames received"),
		idleReaped:         reg.NewCounter("odbgc_server_idle_reaped_total", "sessions closed by the idle reaper"),
		expired:            reg.NewCounter("odbgc_server_expired_total", "admitted requests dropped because their deadline passed in queue"),
		breakerTrips:       reg.NewCounter("odbgc_server_breaker_trips_total", "estimator circuit breaker trips"),
		breakerRecoveries:  reg.NewCounter("odbgc_server_breaker_recoveries_total", "estimator circuit breaker recoveries"),
		durableCommits:     reg.NewCounter("odbgc_server_durable_commits_total", "WAL batches committed by the durability backend"),
		durableCheckpoints: reg.NewCounter("odbgc_server_durable_checkpoints_total", "checkpoints taken by the durability backend"),

		sessionsActive: reg.NewGauge("odbgc_server_sessions_active", "client sessions currently open"),
		inflight:       reg.NewGauge("odbgc_server_requests_inflight", "requests admitted and not yet answered"),
		breakerState:   reg.NewGauge("odbgc_server_breaker_state", "estimator breaker state: 0 closed, 1 half-open, 2 open"),

		recoveryRecords:   reg.NewGauge("odbgc_server_recovery_records_replayed", "WAL records replayed by crash recovery at boot"),
		recoveryBatches:   reg.NewGauge("odbgc_server_recovery_batches_replayed", "WAL batches replayed by crash recovery at boot"),
		recoveryObjects:   reg.NewGauge("odbgc_server_recovery_objects", "objects rebuilt from the durable store at boot"),
		recoveryOpenMs:    reg.NewGauge("odbgc_server_recovery_open_ms", "wall-clock milliseconds disk.Open took at boot: checkpoint load, WAL replay, digest"),
		recoveryRebuildMs: reg.NewGauge("odbgc_server_recovery_rebuild_ms", "wall-clock milliseconds rebuilding the live heap from the recovered state took at boot"),
		recoveryTornTail:  reg.NewGauge("odbgc_server_recovery_torn_tail", "1 when recovery trimmed a torn WAL tail, else 0"),
		recoveryFallback:  reg.NewGauge("odbgc_server_recovery_meta_fallback", "1 when a checkpoint meta page or the newer image was damaged and the other slot's checkpoint served, else 0"),

		latency:      stage("odbgc_server_request_latency_ms", "request latency from admission to response, milliseconds"),
		stageAccept:  stage("odbgc_server_stage_accept_ms", "connection accept to first frame arrival, milliseconds"),
		stageDecode:  stage("odbgc_server_stage_decode_ms", "frame arrival to decoded request, milliseconds"),
		stageQueue:   stage("odbgc_server_stage_queue_wait_ms", "admission-queue wait, milliseconds"),
		stageService: stage("odbgc_server_stage_service_ms", "engine service time, milliseconds"),
		stageWrite:   stage("odbgc_server_stage_write_ms", "response frame write, milliseconds"),
		// A pause is about 0.1 ms: forty 50 µs buckets resolve it, and the
		// overflow bucket still catches a pathological one.
		gcPause: reg.NewHistogram("odbgc_server_gc_pause_ms", "online collection pause, milliseconds", 0, 2, 40),

		errors: make(map[simerr.Class]*obs.Counter),
	}
	for _, class := range simerr.FailureClasses() {
		m.errors[class] = reg.NewCounter(fmt.Sprintf("odbgc_server_errors_%s_total", class),
			fmt.Sprintf("requests that failed with class %s", class))
	}
	return m
}

// failed counts err under its simerr class.
func (m *Metrics) failed(err error) {
	if c := m.errors[simerr.Classify(err)]; c != nil {
		c.Add(1)
	}
}

// RecoveryObserve publishes what crash recovery did at boot, so a scrape
// after a SIGKILL restart shows how much WAL was replayed, how long each half
// of the boot took (opening the store, and rebuilding the heap from it), and
// whether a torn WAL tail was trimmed or the other checkpoint slot served.
func (m *Metrics) RecoveryObserve(info *disk.RecoveryInfo, openMs, rebuildMs float64) {
	m.recoveryRecords.Set(float64(info.RecordsReplayed))
	m.recoveryBatches.Set(float64(info.BatchesReplayed))
	m.recoveryObjects.Set(float64(info.Objects))
	m.recoveryOpenMs.Set(openMs)
	m.recoveryRebuildMs.Set(rebuildMs)
	m.recoveryTornTail.Set(flag(info.TornTail))
	m.recoveryFallback.Set(flag(info.MetaFallback))
}

// flag is a boolean as a 0/1 gauge value.
func flag(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// breakerObserve publishes the breaker's current state and its cumulative
// trip and recovery counts. The breaker reports monotone totals, so each
// counter moves by the difference from what it already holds.
func (m *Metrics) breakerObserve(b *Breaker) {
	m.breakerState.Set(float64(b.State()))
	if cur := m.breakerTrips.Value(); float64(b.Trips()) > cur {
		m.breakerTrips.Add(float64(b.Trips()) - cur)
	}
	if cur := m.breakerRecoveries.Value(); float64(b.Recoveries()) > cur {
		m.breakerRecoveries.Add(float64(b.Recoveries()) - cur)
	}
}
