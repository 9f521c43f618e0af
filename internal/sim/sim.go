// Package sim replays application traces through the storage and collector
// substrates, drives a collection-rate policy, and gathers the measurements
// the paper reports: achieved collector-I/O percentage, achieved garbage
// percentage (sampled at every application event), and per-collection time
// series for the time-varying figures.
//
// Methodology follows §3.2/§4.1: metrics are sampled at each database event
// (create, access, update, overwrite); the cold-start preamble — the first
// PreambleCollections collections — is excluded from summary means; multiple
// seeded runs are aggregated as mean with min/max bars.
package sim

import (
	"context"
	"errors"
	"fmt"
	"io"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/metrics"
	"odbgc/internal/objstore"
	"odbgc/internal/obs"
	"odbgc/internal/simerr"
	"odbgc/internal/storage"
	"odbgc/internal/trace"
)

// Config parameterizes a single simulation run.
type Config struct {
	// Storage geometry; zero value means storage.DefaultConfig().
	Storage storage.Config
	// Policy decides when to collect. Required.
	Policy core.RatePolicy
	// Selection decides what to collect; nil means UPDATEDPOINTER.
	Selection gc.SelectionPolicy
	// PreambleCollections is the cold-start prefix excluded from summary
	// means, counted in collections. Negative disables the preamble; zero
	// means the default of 10 (§3.2).
	PreambleCollections int
	// PhysicalFixups charges collector I/O for rewriting external objects
	// whose pointers into a compacted partition must be updated, modeling
	// physical (direct) pointers instead of the default logical-OID
	// indirection. Used by the fixup-cost ablation.
	PhysicalFixups bool
	// Observer, when non-nil, receives lifecycle events (run start/end,
	// decisions, collections, phase transitions, progress). The
	// simulator never reads observer state: runs with and without an
	// observer produce bit-identical results, and a nil observer costs a
	// single pointer test per event site.
	Observer obs.Observer
}

func (c *Config) applyDefaults() error {
	if c.Policy == nil {
		return fmt.Errorf("sim: config requires a rate policy")
	}
	if c.Storage == (storage.Config{}) {
		c.Storage = storage.DefaultConfig()
	}
	if c.Selection == nil {
		c.Selection = gc.UpdatedPointer{}
	}
	if c.PreambleCollections == 0 {
		c.PreambleCollections = 10
	}
	if c.PreambleCollections < 0 {
		c.PreambleCollections = 0
	}
	return nil
}

// PhaseSummary aggregates one application phase of a run.
type PhaseSummary struct {
	Label       string
	Events      int
	Collections int
	Reclaimed   int             // bytes reclaimed by collections in this phase
	IO          storage.IOStats // all I/O during the phase
	// GarbageFrac is the event-sampled mean garbage fraction during the
	// phase (NaN if the phase had no application events).
	GarbageFrac float64
}

// Result summarizes one simulation run.
type Result struct {
	PolicyName    string
	SelectionName string
	Events        int

	// Totals over the full run.
	Final          storage.IOStats
	Collections    []core.Collection // the control loop's record of each, for the time-varying figures
	Phases         []obs.PhaseChange // where each application phase began
	PhaseSummaries []PhaseSummary
	FinalDBBytes   int
	FinalGarbage   int
	// FinalPinnedGarbage is the part of FinalGarbage held unreclaimable by
	// cross-partition remembered-set entries (see gc.Heap.PinnedGarbageBytes).
	FinalPinnedGarbage int
	FinalLiveBytes     int
	Partitions         int
	TotalReclaimed     uint64
	TotalGarbage       uint64

	// Measurement window (post-preamble) summaries. The effective preamble
	// adapts to short runs: min(configured, collections/2), mirroring the
	// paper's per-configuration preamble lengths (§3.2).
	EffectivePreamble int
	MeasuredEvents    int
	MeasuredIO        storage.IOStats
	// GCIOFrac is collector I/O as a fraction of all I/O over the window —
	// the quantity SAIO controls (Figure 4's y axis).
	GCIOFrac float64
	// GarbageFrac is the event-sampled mean garbage fraction of database
	// size over the window — the quantity SAGA controls (Figure 5's y
	// axis). GarbageFracMin/Max bound the samples.
	GarbageFrac    float64
	GarbageFracMin float64
	GarbageFracMax float64
	// MeasurementStarted reports whether any events fell inside the
	// measurement window.
	MeasurementStarted bool
}

// Simulator replays one trace. Create a fresh Simulator per run.
type Simulator struct {
	cfg  Config
	disk *storage.Manager
	heap *gc.Heap
	loop Loop // the control loop, shared with the server engine

	curPhase string
	step     int

	// Per-phase accumulation.
	phaseAcc    *PhaseSummary
	phaseGarb   metrics.Mean
	phaseIOBase storage.IOStats
	// garbBuckets[k] accumulates garbage-fraction samples taken while k
	// collections had completed, so the preamble cut can be chosen after
	// the run (short runs get shorter preambles).
	garbBuckets []metrics.Mean
	res         *Result
}

// New constructs a simulator.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	if err := cfg.Storage.Validate(); err != nil {
		return nil, err
	}
	disk, err := storage.NewManager(cfg.Storage)
	if err != nil {
		return nil, err
	}
	heap := gc.NewHeap(objstore.NewStore(), disk)
	heap.SetPhysicalFixups(cfg.PhysicalFixups)
	s := &Simulator{cfg: cfg, disk: disk, heap: heap,
		res:  &Result{PolicyName: cfg.Policy.Name(), SelectionName: cfg.Selection.Name()},
		loop: Loop{Cycle: core.Cycle{Heap: heap, Policy: cfg.Policy, Selection: cfg.Selection}, Observer: cfg.Observer}}
	if cfg.Observer != nil {
		cfg.Observer.Observe(obs.Envelope{RunStart: &obs.RunStart{
			Policy:    cfg.Policy.Name(),
			Selection: cfg.Selection.Name(),
			Preamble:  cfg.PreambleCollections,
		}})
	}
	return s, nil
}

// Heap exposes the simulator's heap for inspection in tests.
func (s *Simulator) Heap() *gc.Heap { return s.heap }

// Run replays an in-memory trace and returns the run's result. A Simulator
// must not be reused after Run returns.
func (s *Simulator) Run(tr *trace.Trace) (*Result, error) {
	return s.RunContext(context.Background(), tr)
}

// RunContext is Run with cooperative cancellation: the context is checked
// between events, so a canceled or expired context stops the replay at the
// next event boundary with an error classified as simerr.ErrCanceled (or
// simerr.ErrTimeout when the deadline elapsed). The Simulator must be
// discarded after a cancelled run — its state is mid-trace.
func (s *Simulator) RunContext(ctx context.Context, tr *trace.Trace) (*Result, error) {
	for i := range tr.Events {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sim: run stopped at event %d: %w", s.step, simerr.FromContext(err))
		}
		if err := s.Step(&tr.Events[i]); err != nil {
			return nil, err
		}
	}
	return s.Finish()
}

// EventSource yields successive trace events; io.EOF ends the stream.
// *trace.Reader implements it.
type EventSource interface {
	Read() (trace.Event, error)
}

// RunStream replays events from a source (e.g. a trace file reader)
// without materializing the whole trace in memory.
func (s *Simulator) RunStream(src EventSource) (*Result, error) {
	return s.RunStreamContext(context.Background(), src)
}

// RunStreamContext is RunStream with cooperative cancellation between
// events; see RunContext for the cancellation contract.
func (s *Simulator) RunStreamContext(ctx context.Context, src EventSource) (*Result, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sim: run stopped at event %d: %w", s.step, simerr.FromContext(err))
		}
		e, err := src.Read()
		if errors.Is(err, io.EOF) {
			return s.Finish()
		}
		if err != nil {
			return nil, fmt.Errorf("sim: reading event %d: %w", s.step, err)
		}
		if err := s.Step(&e); err != nil {
			return nil, err
		}
	}
}

// Step applies one trace event, running a collection first if the policy
// asks for one. Most callers use Run or RunStream; Step is exposed for
// callers interleaving simulation with other work.
func (s *Simulator) Step(e *trace.Event) error {
	i := s.step
	s.step++

	// Collections happen between events, when Loop.Due says so.
	if s.loop.Due() {
		if err := s.collect(false); err != nil {
			return fmt.Errorf("sim: event %d: %w", i, err)
		}
	}

	var err error // idle ticks ask before Apply clears the collect-safe state
	switch e.Kind {
	case trace.KindPhase:
		s.phase(e.Label.String(), i)
	case trace.KindIdle:
		err = s.idle(e.Size)
	}
	if err == nil {
		err = s.loop.Apply(e)
	}
	if err != nil {
		if errors.Is(err, objstore.ErrOIDRange) || errors.Is(err, objstore.ErrSizeRange) ||
			errors.Is(err, objstore.ErrSlotRange) || errors.Is(err, objstore.ErrAbsent) {
			// No generator emits these: the trace is damaged.
			err = fmt.Errorf("%w: %w", simerr.ErrCorruptTrace, err)
		}
		return fmt.Errorf("sim: event %d (%s): %w", i, e.String(), err)
	}

	// Sample at each database event (application events only).
	switch e.Kind {
	case trace.KindCreate, trace.KindAccess, trace.KindUpdate, trace.KindOverwrite:
		s.res.Events++
		if s.phaseAcc != nil {
			s.phaseAcc.Events++
		}
		if db := s.heap.DatabaseBytes(); db > 0 {
			frac := float64(s.heap.ActualGarbageBytes()) / float64(db)
			k := len(s.res.Collections)
			for len(s.garbBuckets) <= k {
				s.garbBuckets = append(s.garbBuckets, metrics.Mean{})
			}
			s.garbBuckets[k].Add(frac)
			s.phaseGarb.Add(frac)
		}
	}

	s.loop.Heartbeat(s.step, len(s.res.Collections), s.curPhase)
	return nil
}

// phase closes the current phase and opens the one a phase event starts.
func (s *Simulator) phase(label string, idx int) {
	s.closePhase()
	s.curPhase = label
	mark := obs.PhaseChange{Step: idx, Label: label, Collections: len(s.res.Collections), Overwrites: s.heap.OverwriteClock()}
	s.res.Phases = append(s.res.Phases, mark)
	s.phaseAcc = &PhaseSummary{Label: label}
	s.phaseGarb = metrics.Mean{}
	s.phaseIOBase = s.disk.Stats()
	if s.cfg.Observer != nil {
		s.cfg.Observer.Observe(obs.Envelope{Phase: &mark})
	}
}

// idle gives an opportunistic policy up to one collection per quiescence
// tick, letting it run beyond its user-stated limits while the application
// is not competing for I/O (§5).
func (s *Simulator) idle(ticks int) error {
	ic, ok := s.cfg.Policy.(core.IdleCollector)
	if !ok {
		return nil
	}
	for i := 0; i < ticks; i++ {
		if s.loop.midBuild || !ic.ShouldCollectIdle(s.loop.Cycle.Clock(), s.heap) {
			return nil
		}
		if err := s.collect(true); err != nil {
			return err
		}
	}
	return nil
}

// collect takes one turn of the control loop and books it: the loop's record
// for the time-varying figures and the phase accumulators.
func (s *Simulator) collect(idle bool) error {
	c, err := s.loop.Collect(s.step, s.curPhase, idle)
	if err != nil || !c.Collected {
		return err
	}
	s.res.Collections = append(s.res.Collections, c)
	if s.phaseAcc != nil {
		s.phaseAcc.Collections++
		s.phaseAcc.Reclaimed += c.Result.ReclaimedBytes
	}
	return nil
}

// closePhase finalizes the current phase summary, if one is open.
func (s *Simulator) closePhase() {
	if s.phaseAcc == nil {
		return
	}
	s.phaseAcc.IO = s.disk.Stats().Sub(s.phaseIOBase)
	s.phaseAcc.GarbageFrac = s.phaseGarb.Value()
	s.res.PhaseSummaries = append(s.res.PhaseSummaries, *s.phaseAcc)
	s.phaseAcc = nil
}

// Finish validates final state and computes the run summary. Run and
// RunStream call it automatically; callers driving Step directly call it
// once at end of trace.
func (s *Simulator) Finish() (*Result, error) {
	s.closePhase()
	if err := s.heap.Check(); err != nil {
		return nil, fmt.Errorf("sim: final invariant check: %w", err)
	}
	r := s.res
	r.Final = s.disk.Stats()
	r.FinalDBBytes = s.heap.DatabaseBytes()
	r.FinalGarbage = s.heap.ActualGarbageBytes()
	r.FinalPinnedGarbage = s.heap.PinnedGarbageBytes()
	r.FinalLiveBytes = r.FinalDBBytes - r.FinalGarbage
	r.Partitions = s.disk.NumPartitions()
	r.TotalReclaimed = s.heap.TotalCollectedBytes()
	r.TotalGarbage = s.heap.TotalGarbageBytes()

	// Choose the effective preamble after the fact: the configured length,
	// but never more than half the run's collections, so short runs still
	// yield a measurement window.
	p := s.cfg.PreambleCollections
	if half := len(r.Collections) / 2; p > half {
		p = half
	}
	r.EffectivePreamble = p

	var baseline storage.IOStats
	if p > 0 {
		baseline = r.Collections[p-1].CumulativeIO
	}
	r.MeasuredIO = r.Final.Sub(baseline)
	if tot := r.MeasuredIO.TotalIO(); tot > 0 {
		r.GCIOFrac = float64(r.MeasuredIO.GCIO()) / float64(tot)
	}
	var garb metrics.Mean
	for k := p; k < len(s.garbBuckets); k++ {
		garb.Merge(s.garbBuckets[k])
	}
	r.MeasuredEvents = garb.N()
	r.MeasurementStarted = garb.N() > 0
	r.GarbageFrac = garb.Value()
	r.GarbageFracMin = garb.Min()
	r.GarbageFracMax = garb.Max()
	if s.cfg.Observer != nil {
		s.cfg.Observer.Observe(obs.Envelope{RunEnd: &obs.RunEnd{
			Events:       r.Events,
			Collections:  len(r.Collections),
			Preamble:     r.EffectivePreamble,
			GCIOFrac:     obs.Float(r.GCIOFrac),
			GarbageFrac:  obs.Float(r.GarbageFrac),
			Reclaimed:    r.TotalReclaimed,
			TotalGarbage: r.TotalGarbage,
			FinalDBBytes: r.FinalDBBytes,
			FinalGarbage: r.FinalGarbage,
			Partitions:   r.Partitions,
			TotalIO:      r.Final.TotalIO(),
		}})
	}
	return r, nil
}
