// Package obs is the simulator's zero-dependency observability layer: one
// observer method the drivers call at their structural moments (run
// start/end, policy decisions, collections, phase transitions, progress),
// each event an Envelope carrying one typed payload; a structured JSONL event
// emitter that writes those envelopes with a versioned byte-deterministic
// encoding, an in-process metrics registry with Prometheus text-format
// exposition, and run provenance
// manifests that make every persisted result attributable to the exact
// configuration, seeds, and trace that produced it. The serving stack's
// request and GC spans (Span) are one more envelope payload: the flight
// recorder in package span dumps them through the same writer.
//
// Determinism contract: observers are write-only — the simulator never
// reads anything back from them — and every field of every event derives
// from simulated time (core.Clock) and simulated state, never from the wall
// clock. A Span carries wall-clock ticks, but the caller reads them and
// passes them in; this package still reads no clock. The wall clock appears
// only at the HTTP boundary (uptime on the status endpoint), under a
// reasoned //lint:allow, so detrand stays green over this package. A nil
// Observer in sim.Config costs nothing: the simulator guards every send with
// a nil check and allocates no event structs.
package obs

import (
	"odbgc/internal/core"
	"odbgc/internal/storage"
)

// SchemaVersion identifies the JSONL event schema. Bump on any change to
// event field sets or semantics; consumers reject versions they don't know.
// It stayed 1 when the storage-fault event and run_start's optional
// fault_profile and fault_seed left the schema: no field was added or changed
// meaning, a run without faults emits the same bytes, and the `fault` line a
// reader now refuses was written only by the deleted storage-fault profiles.
// It stayed 1 when the span payload joined: span dumps already carried
// "v":1 in an envelope of this shape, so a dump written before reads back
// unchanged, and no event-log line changed. It stayed 1 when the checkpoint
// event and run_start's optional resumed cursor left the schema: only the
// simulator's checkpoint and resume wrote them, no tool has called either
// since gcsim lost -checkpoint, and a reader now refuses a `checkpoint` line
// as an unknown event type.
const SchemaVersion = 1

// ToolVersion names the emitting build in manifests. It is a hand-bumped
// constant rather than VCS metadata so identical configurations produce
// byte-identical manifests regardless of how the binary was built.
const ToolVersion = "odbgc-0.3.0"

// RunStart announces a run's static configuration before the first event.
type RunStart struct {
	Policy    string `json:"policy"`
	Selection string `json:"selection"`
	Preamble  int    `json:"preamble"`
}

// PhaseChange marks an application phase transition.
type PhaseChange struct {
	Step        int    `json:"step"` // event cursor when the phase began
	Label       string `json:"label"`
	Collections int    `json:"collections"`
	Overwrites  uint64 `json:"overwrites"`
}

// Decision records one policy consultation that triggered collection work:
// the controller's inputs (simulated clock, database and garbage sizes) and
// its outputs (estimate, target, chosen interval, whether a partition was
// actually collected).
type Decision struct {
	Step         int        `json:"step"`
	Clock        core.Clock `json:"clock"`
	DBBytes      int        `json:"db_bytes"`
	GarbageBytes int        `json:"garbage_bytes"`
	Collected    bool       `json:"collected"`
	Estimate     Float      `json:"estimate"`      // estimated garbage bytes (0 for non-estimating policies)
	Target       Float      `json:"target"`        // target garbage bytes
	NextInterval uint64     `json:"next_interval"` // overwrites until the next collection (0 = policy-internal)
	Idle         bool       `json:"idle,omitempty"`
}

// DecisionOf converts one turn of the control loop, collected or not; step
// is the driver's cursor (trace events or admitted requests).
func DecisionOf(c core.Collection, step int, idle bool) Decision {
	return Decision{
		Step:         step,
		Clock:        c.After,
		DBBytes:      c.DatabaseBytes,
		GarbageBytes: c.GarbageBytes,
		Collected:    c.Collected,
		Estimate:     Float(c.Estimate),
		Target:       Float(c.Target),
		NextInterval: c.NextInterval,
		Idle:         idle,
	}
}

// Collection records one completed collection: core.Collection in the event
// log's schema.
type Collection struct {
	Index            int             `json:"index"`
	Step             int             `json:"step"`
	Phase            string          `json:"phase"`
	Clock            core.Clock      `json:"clock"`
	Interval         uint64          `json:"interval"`
	Partition        int             `json:"partition"`
	ReclaimedBytes   int             `json:"reclaimed_bytes"`
	ReclaimedObjects int             `json:"reclaimed_objects"`
	LiveBytes        int             `json:"live_bytes"`
	PartitionPO      int             `json:"partition_po"`
	IO               storage.IOStats `json:"io"`
	CumulativeIO     storage.IOStats `json:"cumulative_io"`
	DBBytes          int             `json:"db_bytes"`
	GarbageBytes     int             `json:"garbage_bytes"`
	GarbageFrac      Float           `json:"garbage_frac"`
	EstimatedFrac    Float           `json:"estimated_frac"`
	TargetFrac       Float           `json:"target_frac"`
	NextInterval     uint64          `json:"next_interval"`
}

// CollectionOf converts a completed collection; step is the driver's cursor
// when it ran.
func CollectionOf(c core.Collection, step int) Collection {
	return Collection{
		Index:            c.Index,
		Step:             step,
		Phase:            c.Phase,
		Clock:            c.After,
		Interval:         c.Interval,
		Partition:        int(c.Result.Partition),
		ReclaimedBytes:   c.Result.ReclaimedBytes,
		ReclaimedObjects: c.Result.ReclaimedObjects,
		LiveBytes:        c.Result.LiveBytes,
		PartitionPO:      c.Result.PartitionPO,
		IO:               c.Result.IO,
		CumulativeIO:     c.CumulativeIO,
		DBBytes:          c.DatabaseBytes,
		GarbageBytes:     c.GarbageBytes,
		GarbageFrac:      Float(c.GarbageFrac()),
		EstimatedFrac:    Float(c.EstimatedFrac()),
		TargetFrac:       Float(c.TargetFrac()),
		NextInterval:     c.NextInterval,
	}
}

// SetCollection fills a GC span's attribution from the collection it
// timed: core.Collection in the span's schema, beside CollectionOf so the
// two records cannot drift apart.
func (sp *Span) SetCollection(c core.Collection) {
	sp.Partition = int(c.Result.Partition)
	sp.ReclaimedBytes = c.Result.ReclaimedBytes
	sp.ReclaimedObjects = c.Result.ReclaimedObjects
	sp.TracedObjects = c.Result.LiveObjects
	sp.EstimateFrac = Float(c.EstimatedFrac())
	sp.TargetFrac = Float(c.TargetFrac())
}

// Progress is a coarse heartbeat both drivers emit every 1000 steps (trace
// events in a replay, admitted requests in a server) so live consumers can
// track a run between collections.
type Progress struct {
	Step        int        `json:"step"`
	Collections int        `json:"collections"`
	Phase       string     `json:"phase"`
	Clock       core.Clock `json:"clock"`
}

// RunEnd carries the run's summary.
type RunEnd struct {
	Events       int    `json:"events"`
	Collections  int    `json:"collections"`
	Preamble     int    `json:"effective_preamble"`
	GCIOFrac     Float  `json:"gc_io_frac"`
	GarbageFrac  Float  `json:"garbage_frac"`
	Reclaimed    uint64 `json:"reclaimed_bytes"`
	TotalGarbage uint64 `json:"total_garbage_bytes"`
	FinalDBBytes int    `json:"final_db_bytes"`
	FinalGarbage int    `json:"final_garbage_bytes"`
	Partitions   int    `json:"partitions"`
	TotalIO      uint64 `json:"total_io"`
}

// Observer receives a run's events. A driver sends each event as an
// Envelope with exactly one payload pointer set and leaves V, Seq and Type
// zero: JSONLWriter stamps those as it writes, from the payload, so the tag
// cannot disagree with it. Implementations are write-only taps: they must not
// mutate the payload or anything the simulator reads, and they copy what they
// keep. Observe is called from the driver's goroutine, in deterministic order;
// implementations that share state with other goroutines (e.g. an HTTP status
// endpoint) do their own locking.
type Observer interface {
	Observe(Envelope)
}

// Multi fans events out to several observers in order.
type Multi []Observer

// NewMulti returns an observer broadcasting to all non-nil arguments; it
// returns nil when none remain, preserving the "nil observer costs nothing"
// fast path in the simulator.
func NewMulti(obs ...Observer) Observer {
	var m Multi
	for _, o := range obs {
		if o != nil {
			m = append(m, o)
		}
	}
	switch len(m) {
	case 0:
		return nil
	case 1:
		return m[0]
	}
	return m
}

// Observe implements Observer.
func (m Multi) Observe(e Envelope) {
	for _, o := range m {
		o.Observe(e)
	}
}
