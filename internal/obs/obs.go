// Package obs is the simulator's zero-dependency observability layer:
// typed observer hooks the simulation loop fires at its structural moments
// (run start/end, policy decisions, collections, phase transitions, fault
// injections, checkpoint save/resume), a structured JSONL event emitter
// with a versioned byte-deterministic encoding, an in-process metrics
// registry with Prometheus text-format exposition, and run provenance
// manifests that make every persisted result attributable to the exact
// configuration, seeds, and trace that produced it.
//
// Determinism contract: observers are write-only — the simulator never
// reads anything back from them — and every field of every event derives
// from simulated time (core.Clock) and simulated state, never from the wall
// clock. The wall clock appears only at the HTTP boundary (uptime on the
// status endpoint), under a reasoned //lint:allow, so detrand stays green
// over this package. A nil Observer in sim.Config costs nothing: the
// simulator guards every hook with a nil check and allocates no event
// structs.
package obs

import (
	"odbgc/internal/core"
	"odbgc/internal/storage"
)

// SchemaVersion identifies the JSONL event schema. Bump on any change to
// event field sets or semantics; consumers reject versions they don't know.
const SchemaVersion = 1

// ToolVersion names the emitting build in manifests. It is a hand-bumped
// constant rather than VCS metadata so identical configurations produce
// byte-identical manifests regardless of how the binary was built.
const ToolVersion = "odbgc-0.3.0"

// RunStart announces a run's static configuration before the first event.
type RunStart struct {
	Policy       string `json:"policy"`
	Selection    string `json:"selection"`
	Preamble     int    `json:"preamble"`
	FaultProfile string `json:"fault_profile,omitempty"`
	FaultSeed    int64  `json:"fault_seed,omitempty"`
	// Resumed is the checkpoint cursor when the run continues a prior one;
	// zero for fresh runs.
	Resumed int `json:"resumed,omitempty"`
}

// Clock mirrors core.Clock with stable JSON names.
type Clock struct {
	AppIO      uint64 `json:"app_io"`
	GCIO       uint64 `json:"gc_io"`
	Overwrites uint64 `json:"overwrites"`
}

// ClockOf converts a core.Clock.
func ClockOf(c core.Clock) Clock {
	return Clock{AppIO: c.AppIO, GCIO: c.GCIO, Overwrites: c.Overwrites}
}

// IO mirrors storage.IOStats with stable JSON names.
type IO struct {
	AppReads  uint64 `json:"app_reads"`
	AppWrites uint64 `json:"app_writes"`
	GCReads   uint64 `json:"gc_reads"`
	GCWrites  uint64 `json:"gc_writes"`
}

// IOOf converts a storage.IOStats.
func IOOf(s storage.IOStats) IO {
	return IO{AppReads: s.AppReads, AppWrites: s.AppWrites, GCReads: s.GCReads, GCWrites: s.GCWrites}
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
	Step         int    `json:"step"`
	Clock        Clock  `json:"clock"`
	DBBytes      int    `json:"db_bytes"`
	GarbageBytes int    `json:"garbage_bytes"`
	Collected    bool   `json:"collected"`
	Estimate     Float  `json:"estimate"`      // estimated garbage bytes (0 for non-estimating policies)
	Target       Float  `json:"target"`        // target garbage bytes
	NextInterval uint64 `json:"next_interval"` // overwrites until the next collection (0 = policy-internal)
	Idle         bool   `json:"idle,omitempty"`
}

// DecisionOf converts one turn of the control loop, collected or not; step
// is the driver's cursor (trace events or admitted requests).
func DecisionOf(c core.Collection, step int, idle bool) Decision {
	return Decision{
		Step:         step,
		Clock:        ClockOf(c.After),
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
	Index            int    `json:"index"`
	Step             int    `json:"step"`
	Phase            string `json:"phase"`
	Clock            Clock  `json:"clock"`
	Interval         uint64 `json:"interval"`
	Partition        int    `json:"partition"`
	ReclaimedBytes   int    `json:"reclaimed_bytes"`
	ReclaimedObjects int    `json:"reclaimed_objects"`
	LiveBytes        int    `json:"live_bytes"`
	PartitionPO      int    `json:"partition_po"`
	IO               IO     `json:"io"`
	CumulativeIO     IO     `json:"cumulative_io"`
	DBBytes          int    `json:"db_bytes"`
	GarbageBytes     int    `json:"garbage_bytes"`
	GarbageFrac      Float  `json:"garbage_frac"`
	EstimatedFrac    Float  `json:"estimated_frac"`
	TargetFrac       Float  `json:"target_frac"`
	NextInterval     uint64 `json:"next_interval"`
}

// CollectionOf converts a completed collection; step and phase are the
// driver's position when it ran.
func CollectionOf(c core.Collection, step int, phase string) Collection {
	return Collection{
		Index:            c.Index,
		Step:             step,
		Phase:            phase,
		Clock:            ClockOf(c.After),
		Interval:         c.Interval,
		Partition:        int(c.Result.Partition),
		ReclaimedBytes:   c.Result.ReclaimedBytes,
		ReclaimedObjects: c.Result.ReclaimedObjects,
		LiveBytes:        c.Result.LiveBytes,
		PartitionPO:      c.Result.PartitionPO,
		IO:               IOOf(c.Result.IO),
		CumulativeIO:     IOOf(c.CumulativeIO),
		DBBytes:          c.DatabaseBytes,
		GarbageBytes:     c.GarbageBytes,
		GarbageFrac:      Float(c.Frac(float64(c.GarbageBytes))),
		EstimatedFrac:    Float(c.Frac(c.Estimate)),
		TargetFrac:       Float(c.Frac(c.Target)),
		NextInterval:     c.NextInterval,
	}
}

// Fault records one injected storage fault.
type Fault struct {
	Step  int    `json:"step"`
	Op    string `json:"op"`  // "read" or "write"
	Seq   uint64 `json:"seq"` // the injector's operation counter
	Burst bool   `json:"burst,omitempty"`
}

// CheckpointMark records a checkpoint capture or a resume from one.
type CheckpointMark struct {
	Step int    `json:"step"`
	Op   string `json:"op"` // "save" or "resume"
}

// Progress is a coarse heartbeat emitted every ProgressEvery events so live
// consumers can track a long run between collections.
type Progress struct {
	Step        int    `json:"step"`
	Collections int    `json:"collections"`
	Phase       string `json:"phase"`
	Clock       Clock  `json:"clock"`
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

// Observer receives simulation lifecycle events. Implementations must not
// mutate anything the simulator reads — hooks are strictly write-only taps.
// All methods are called from the simulation goroutine, in deterministic
// order; implementations that share state with other goroutines (e.g. an
// HTTP status endpoint) do their own locking.
type Observer interface {
	ObserveRunStart(RunStart)
	ObservePhase(PhaseChange)
	ObserveDecision(Decision)
	ObserveCollection(Collection)
	ObserveFault(Fault)
	ObserveCheckpoint(CheckpointMark)
	ObserveProgress(Progress)
	ObserveRunEnd(RunEnd)
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

// ObserveRunStart implements Observer.
func (m Multi) ObserveRunStart(e RunStart) {
	for _, o := range m {
		o.ObserveRunStart(e)
	}
}

// ObservePhase implements Observer.
func (m Multi) ObservePhase(e PhaseChange) {
	for _, o := range m {
		o.ObservePhase(e)
	}
}

// ObserveDecision implements Observer.
func (m Multi) ObserveDecision(e Decision) {
	for _, o := range m {
		o.ObserveDecision(e)
	}
}

// ObserveCollection implements Observer.
func (m Multi) ObserveCollection(e Collection) {
	for _, o := range m {
		o.ObserveCollection(e)
	}
}

// ObserveFault implements Observer.
func (m Multi) ObserveFault(e Fault) {
	for _, o := range m {
		o.ObserveFault(e)
	}
}

// ObserveCheckpoint implements Observer.
func (m Multi) ObserveCheckpoint(e CheckpointMark) {
	for _, o := range m {
		o.ObserveCheckpoint(e)
	}
}

// ObserveProgress implements Observer.
func (m Multi) ObserveProgress(e Progress) {
	for _, o := range m {
		o.ObserveProgress(e)
	}
}

// ObserveRunEnd implements Observer.
func (m Multi) ObserveRunEnd(e RunEnd) {
	for _, o := range m {
		o.ObserveRunEnd(e)
	}
}
