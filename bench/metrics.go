package main

// metricDef names one metric. The tables below are the single list of what
// the harness reports; BENCHMARK.json is generated from them (-manifest) and a
// test keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndMetrics are what a user of the system sees. Every workload reports
// all of them, each read in the workload's own unit of work (README,
// "End-to-end metrics"). The bounds are the contract's maximum of a quarter,
// less for live_heap_mb: over ten seeds the timings spread by 2-12 % on the
// sizing box and serve-mem's stall_us by up to 23 % (README, "Baseline"), and
// a bound has to clear the spread. live_heap_mb repeats to 0.5 %.
var endToEndMetrics = []metricDef{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "lat_p50_us", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "stall_us", Unit: "us", Better: lower, Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MiB", Better: lower, Bound: 0.2},
}

// perLayerMetrics come from the traced pass. A workload that never enters a
// layer reports that layer's metrics as 0.
var perLayerMetrics = []metricDef{
	// trace
	{Name: "trace.encode_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "trace.decode_mb_per_s", Unit: "MB/s", Better: higher},
	// sim
	{Name: "sim.step_ns_create", Unit: "ns", Better: lower},
	{Name: "sim.step_ns_access", Unit: "ns", Better: lower},
	{Name: "sim.step_ns_update", Unit: "ns", Better: lower},
	{Name: "sim.step_ns_overwrite", Unit: "ns", Better: lower},
	{Name: "sim.finish_ms", Unit: "ms", Better: lower},
	{Name: "sim.self_ns_per_event", Unit: "ns", Better: lower},
	// gc, mutation
	{Name: "gc.create_ns", Unit: "ns", Better: lower},
	{Name: "gc.access_ns", Unit: "ns", Better: lower},
	{Name: "gc.update_ns", Unit: "ns", Better: lower},
	{Name: "gc.overwrite_ns", Unit: "ns", Better: lower},
	{Name: "gc.oracle_dead_ns", Unit: "ns", Better: lower},
	// gc, collector
	{Name: "gc.collect_p50_us", Unit: "us", Better: lower},
	{Name: "gc.collect_p95_us", Unit: "us", Better: lower},
	{Name: "gc.collect_max_us", Unit: "us", Better: lower},
	{Name: "gc.select_us", Unit: "us", Better: lower},
	{Name: "gc.collections", Unit: "count", Better: lower},
	{Name: "gc.collections_per_kreq", Unit: "count", Better: lower},
	{Name: "gc.reclaimed_bytes_per_collect", Unit: "B", Better: higher},
	{Name: "gc.traced_objects_per_collect", Unit: "count", Better: lower},
	{Name: "gc.yield_frac", Unit: "ratio", Better: higher},
	{Name: "gc.pause_p50_us", Unit: "us", Better: lower},
	{Name: "gc.pause_max_us", Unit: "us", Better: lower},
	// core
	{Name: "core.should_collect_ns", Unit: "ns", Better: lower},
	{Name: "core.after_collection_us", Unit: "us", Better: lower},
	{Name: "core.gc_io_share_pct", Unit: "%", Better: lower},
	{Name: "core.share_err_pp", Unit: "pp", Better: lower},
	{Name: "core.saga_garbage_err_pp", Unit: "pp", Better: lower},
	// storage
	{Name: "storage.allocate_ns", Unit: "ns", Better: lower},
	{Name: "storage.touch_ns", Unit: "ns", Better: lower},
	{Name: "storage.app_io_per_kop", Unit: "count", Better: lower},
	{Name: "storage.gc_io_per_collect", Unit: "count", Better: lower},
	{Name: "storage.read_miss_frac", Unit: "ratio", Better: lower},
	{Name: "storage.partitions", Unit: "count", Better: lower},
	{Name: "storage.db_bytes", Unit: "B", Better: lower},
	// objstore
	{Name: "objstore.create_ns", Unit: "ns", Better: lower},
	{Name: "objstore.get_ns", Unit: "ns", Better: lower},
	{Name: "objstore.set_slot_ns", Unit: "ns", Better: lower},
	{Name: "objstore.heap_bytes_per_object", Unit: "B", Better: lower},
	// disk
	{Name: "disk.commit_p50_us", Unit: "us", Better: lower},
	{Name: "disk.commit_p999_us", Unit: "us", Better: lower},
	{Name: "disk.syncs_per_req", Unit: "count", Better: lower},
	{Name: "disk.wal_bytes_per_req", Unit: "B", Better: lower},
	{Name: "disk.write_amp", Unit: "ratio", Better: lower},
	{Name: "disk.checkpoint_p50_ms", Unit: "ms", Better: lower},
	{Name: "disk.checkpoint_max_ms", Unit: "ms", Better: lower},
	{Name: "disk.checkpoints_per_kreq", Unit: "count", Better: lower},
	{Name: "disk.page_bytes_per_checkpoint", Unit: "B", Better: lower},
	{Name: "disk.open_ms", Unit: "ms", Better: lower},
	{Name: "disk.rebuild_ms", Unit: "ms", Better: lower},
	{Name: "disk.replay_batches", Unit: "count", Better: lower},
	{Name: "disk.file_bytes_per_object", Unit: "B", Better: lower},
	{Name: "disk.heap_bytes_per_object", Unit: "B", Better: lower},
	// server
	{Name: "server.rtt_p99_us", Unit: "us", Better: lower},
	{Name: "server.rtt_p999_us", Unit: "us", Better: lower},
	{Name: "server.queue_p50_us", Unit: "us", Better: lower},
	{Name: "server.queue_p999_us", Unit: "us", Better: lower},
	{Name: "server.service_p50_us", Unit: "us", Better: lower},
	{Name: "server.service_p999_us", Unit: "us", Better: lower},
	{Name: "server.wire_p50_us", Unit: "us", Better: lower},
	{Name: "server.ping_rtt_p50_us", Unit: "us", Better: lower},
	{Name: "server.submit_p50_us", Unit: "us", Better: lower},
	{Name: "server.frame_encode_ns", Unit: "ns", Better: lower},
	{Name: "server.frame_decode_ns", Unit: "ns", Better: lower},
	{Name: "server.frame_bytes_per_req", Unit: "B", Better: lower},
	{Name: "server.shed_frac", Unit: "ratio", Better: lower},
	{Name: "server.error_frac", Unit: "ratio", Better: lower},
	// obs and the harness itself
	{Name: "obs.span_overhead_pct", Unit: "%", Better: lower},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: lower},
	{Name: "bench.span_coverage_pct", Unit: "%", Better: higher},
	{Name: "bench.spans", Unit: "count", Better: lower},
	// self time per layer, from the span log
	{Name: "self.sim_ms", Unit: "ms", Better: lower},
	{Name: "self.gc_ms", Unit: "ms", Better: lower},
	{Name: "self.core_ms", Unit: "ms", Better: lower},
	{Name: "self.server_ms", Unit: "ms", Better: lower},
	{Name: "self.disk_ms", Unit: "ms", Better: lower},
	{Name: "self.device_ms", Unit: "ms", Better: lower},
}

// exactCountMetrics are the per-layer counts that repeat exactly for one seed
// (one closed-loop client, a fixed request count, no timers in the program):
// -compare requires them equal, and a later change may rest a claim on them.
var exactCountMetrics = []string{
	"gc.collections", "gc.collections_per_kreq", "gc.reclaimed_bytes_per_collect",
	"gc.traced_objects_per_collect", "gc.yield_frac",
	"core.gc_io_share_pct", "core.share_err_pp", "core.saga_garbage_err_pp",
	"storage.app_io_per_kop", "storage.gc_io_per_collect", "storage.read_miss_frac",
	"storage.partitions", "storage.db_bytes",
	"disk.syncs_per_req", "disk.wal_bytes_per_req", "disk.write_amp",
	"disk.checkpoints_per_kreq", "disk.page_bytes_per_checkpoint", "disk.replay_batches",
	"disk.file_bytes_per_object",
}

// workloadWhy is the one-line reason each workload exists.
var workloadWhy = map[string]string{
	"replay-oo7":     "the researcher's path: OO7 Small' trace through sim.Run under SAIO 10 %; ~96 % mutator work (heap, remset, placement, sampling), 22 collections, no wire, no WAL",
	"replay-gcheavy": "same trace under fixed-rate 50 overwrites: 394 collections, so Heap.Collect and Manager.Compact are ~40 % of the run; a collector change shows here and barely on replay-oo7",
	"serve-mem":      "2 closed-loop TCP clients against in-process odbgcd, no durable backend: wire, admission queue and engine dominate; the WAL is bypassed, so a disk change must not move it",
	"serve-durable":  "same traffic with disk.Store attached, fsync always, 200 us modelled sync stall: commit, sync and checkpoint dominate; group commit or a cheaper checkpoint shows here only",
	"restart":        "200 000 objects on disk with a 2 000-batch WAL tail: disk.Open + RebuildHeap and full-image Checkpoint do the work; the only workload where recovery and image load are timed",
}
