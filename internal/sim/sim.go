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
	"odbgc/internal/fault"
	"odbgc/internal/gc"
	"odbgc/internal/metrics"
	"odbgc/internal/objstore"
	"odbgc/internal/obs"
	"odbgc/internal/obs/span"
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
	// FaultProfile, when it carries storage-fault rates, installs a seeded
	// fault injector on the storage manager behind fault.DefaultRetry's
	// bounded retry. Trace and estimator faults are wired by the caller
	// (wrap the trace reader with fault.CorruptTrace and the estimator with
	// fault.NewChaosEstimator) since the simulator never sees those layers'
	// construction.
	FaultProfile fault.Profile
	// FaultSeed seeds the fault injector; runs with the same profile and
	// seed replay the identical fault schedule.
	FaultSeed int64
	// Observer, when non-nil, receives lifecycle events (run start/end,
	// decisions, collections, phase transitions, faults, checkpoints). The
	// simulator never reads observer state: runs with and without an
	// observer produce bit-identical results, and a nil observer costs a
	// single pointer test per hook site.
	Observer obs.Observer
	// ProgressEvery emits an obs.Progress heartbeat every N trace events
	// (only when Observer is set). Zero means the default of 1000; negative
	// disables heartbeats.
	ProgressEvery int
	// Spans, when non-nil, receives one KindGC span per collection in the
	// same schema the live server emits, timed on the simulated I/O clock.
	// Like Observer, the simulator never reads recorder state: runs with
	// and without a recorder are bit-identical, and the nil case costs one
	// pointer test per collection.
	Spans *span.Recorder
	// Durable, when non-nil, write-ahead-logs every heap mutation to this
	// backend. The simulator commits one batch per trace event (so a crash
	// loses at most the event in flight) and checkpoints at phase
	// boundaries and at Finish. The caller owns the backend's lifecycle
	// (Open before New, Close after Finish). Simulation results are
	// bit-identical with and without a backend attached.
	Durable storage.Backend
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
	if c.ProgressEvery == 0 {
		c.ProgressEvery = 1000
	}
	return nil
}

// CollectionRecord captures one collection for the time-varying figures.
type CollectionRecord struct {
	Index     int    // collection number, 1-based
	Phase     string // application phase during which it ran
	Clock     core.Clock
	Interval  uint64 // overwrites since the previous collection
	Partition storage.PartitionID

	ReclaimedBytes   int
	ReclaimedObjects int
	LiveBytes        int
	PartitionPO      int
	IO               storage.IOStats // this collection's I/O
	CumulativeIO     storage.IOStats // run totals just after this collection

	// Post-collection state.
	DatabaseBytes      int
	ActualGarbageBytes int
	ActualGarbageFrac  float64

	// SAGA diagnostics (zero for other policies).
	EstimatedGarbageBytes float64
	EstimatedGarbageFrac  float64
	TargetGarbageFrac     float64
	NextInterval          uint64
}

// PhaseMark records where an application phase began.
type PhaseMark struct {
	Label       string
	EventIndex  int
	Collections int    // collections completed when the phase began
	Overwrites  uint64 // overwrite clock when the phase began
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
	Collections    []CollectionRecord
	Phases         []PhaseMark
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
	cfg      Config
	disk     *storage.Manager
	heap     *gc.Heap
	cycle    core.Cycle      // the control loop; Step and idle decide when it runs
	injector *fault.Injector // nil unless the profile injects storage faults

	curPhase    string
	collectSafe bool
	step        int
	obs         obs.Observer // nil when unobserved; hooks are guarded

	// Per-phase accumulation.
	phaseAcc    *PhaseSummary
	phaseGarb   metrics.Mean
	phaseIOBase storage.IOStats
	// garbBuckets[k] accumulates garbage-fraction samples taken while k
	// collections had completed, so the preamble cut can be chosen after
	// the run (short runs get shorter preambles).
	garbBuckets []metrics.Mean
	res         *Result

	// deadScratch carries each overwrite event's dead OIDs to
	// RecordOracleDead, which copies them into its ledger — reusing it keeps
	// the per-event path allocation-free.
	deadScratch []objstore.OID
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
	s := &Simulator{
		cfg:         cfg,
		disk:        disk,
		heap:        heap,
		cycle:       core.Cycle{Heap: heap, Policy: cfg.Policy, Selection: cfg.Selection},
		collectSafe: true,
		res: &Result{
			PolicyName:    cfg.Policy.Name(),
			SelectionName: cfg.Selection.Name(),
		},
	}
	if cfg.FaultProfile.Storage() {
		s.injector = fault.NewInjector(cfg.FaultProfile, cfg.FaultSeed)
		disk.SetFaultInjector(fault.Retrier{Injector: s.injector})
	}
	if cfg.Durable != nil {
		heap.SetDurable(cfg.Durable)
	}
	s.installObserver()
	if s.obs != nil {
		s.obs.ObserveRunStart(s.runStart(0))
	}
	return s, nil
}

// installObserver wires the config's observer into the simulator and its
// fault injector. Called from New and Resume.
func (s *Simulator) installObserver() {
	s.obs = s.cfg.Observer
	if s.obs != nil && s.injector != nil {
		s.injector.SetHook(func(op string, seq uint64, burst bool) {
			s.obs.ObserveFault(obs.Fault{Step: s.step, Op: op, Seq: seq, Burst: burst})
		})
	}
}

// runStart assembles the RunStart event.
func (s *Simulator) runStart(resumed int) obs.RunStart {
	e := obs.RunStart{
		Policy:    s.cfg.Policy.Name(),
		Selection: s.cfg.Selection.Name(),
		Preamble:  s.cfg.PreambleCollections,
		Resumed:   resumed,
	}
	if s.cfg.FaultProfile.Storage() || s.cfg.FaultProfile.Estimator() || s.cfg.FaultProfile.Trace() {
		e.FaultProfile = s.cfg.FaultProfile.Name
		e.FaultSeed = s.cfg.FaultSeed
	}
	return e
}

// Injector returns the storage fault injector, or nil when the run has no
// storage faults configured.
func (s *Simulator) Injector() *fault.Injector { return s.injector }

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

	// Collections happen between events, but never immediately after a
	// create or initializing store: those are mid-construction moments
	// where new structure is not yet wired to the graph.
	if s.collectSafe && s.cycle.Due() {
		if err := s.collect(false); err != nil {
			return fmt.Errorf("sim: event %d: %w", i, err)
		}
	}

	if err := s.apply(e, i); err != nil {
		if errors.Is(err, objstore.ErrOIDRange) || errors.Is(err, objstore.ErrSlotRange) {
			// No generator skips that far ahead or builds one that wide: damage.
			err = fmt.Errorf("%w: %w", simerr.ErrCorruptTrace, err)
		}
		return fmt.Errorf("sim: event %d (%s): %w", i, e.String(), err)
	}
	// One durable batch per event: the WAL records staged by this event
	// (and by any collection that ran at its boundary) commit together, so
	// a crash can only lose whole events. Phase boundaries additionally
	// checkpoint, bounding replay work to one phase of WAL.
	if s.cfg.Durable != nil {
		if err := s.cfg.Durable.Commit(); err != nil {
			return fmt.Errorf("sim: durable commit after event %d: %w", i, err)
		}
		if e.Kind == trace.KindPhase {
			if err := s.cfg.Durable.Checkpoint(); err != nil {
				return fmt.Errorf("sim: durable checkpoint at phase %q: %w", e.Label, err)
			}
		}
	}
	s.collectSafe = !(e.Kind == trace.KindCreate || (e.Kind == trace.KindOverwrite && e.Init))

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

	if s.obs != nil && s.cfg.ProgressEvery > 0 && s.step%s.cfg.ProgressEvery == 0 {
		s.obs.ObserveProgress(obs.Progress{
			Step:        s.step,
			Collections: len(s.res.Collections),
			Phase:       s.curPhase,
			Clock:       obs.ClockOf(s.cycle.Clock()),
		})
	}
	return nil
}

func (s *Simulator) apply(e *trace.Event, idx int) error {
	switch e.Kind {
	case trace.KindCreate:
		return s.heap.Create(e.OID, e.Class, e.Size, e.Slots)
	case trace.KindAccess:
		return s.heap.Access(e.OID)
	case trace.KindUpdate:
		return s.heap.Update(e.OID)
	case trace.KindOverwrite:
		if err := s.heap.Overwrite(e.OID, e.Slot, e.Old, e.New, e.Init); err != nil {
			return err
		}
		if len(e.Dead) > 0 {
			dead := s.deadScratch[:0]
			for _, d := range e.Dead {
				dead = append(dead, d.OID)
			}
			s.deadScratch = dead
			return s.heap.RecordOracleDead(dead)
		}
		return nil
	case trace.KindPhase:
		s.closePhase()
		s.curPhase = e.Label
		s.res.Phases = append(s.res.Phases, PhaseMark{
			Label:       e.Label,
			EventIndex:  idx,
			Collections: len(s.res.Collections),
			Overwrites:  s.heap.OverwriteClock(),
		})
		//lint:allow hotpath one accumulator per phase, retained in the result
		s.phaseAcc = &PhaseSummary{Label: e.Label}
		s.phaseGarb = metrics.Mean{}
		s.phaseIOBase = s.disk.Stats()
		if s.obs != nil {
			s.obs.ObservePhase(obs.PhaseChange{
				Step:        idx,
				Label:       e.Label,
				Collections: len(s.res.Collections),
				Overwrites:  s.heap.OverwriteClock(),
			})
		}
		return nil
	case trace.KindRoot:
		if e.Size == 1 {
			return s.heap.AddRoot(e.OID)
		}
		return s.heap.RemoveRoot(e.OID)
	case trace.KindIdle:
		return s.idle(e.Size)
	default:
		return fmt.Errorf("unknown event kind %d", e.Kind)
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
		if !s.collectSafe || !ic.ShouldCollectIdle(s.cycle.Clock(), s.heap) {
			return nil
		}
		if err := s.collect(true); err != nil {
			return err
		}
	}
	return nil
}

// collect takes one turn of the control loop and books it: the record for
// the time-varying figures, the phase accumulators, the GC span on the
// simulated I/O clock, and the observer events.
func (s *Simulator) collect(idle bool) error {
	c, err := s.cycle.Run()
	if err != nil {
		return err
	}
	if c.Collected {
		s.res.Collections = append(s.res.Collections, s.record(c))
		if s.phaseAcc != nil {
			s.phaseAcc.Collections++
			s.phaseAcc.Reclaimed += c.Result.ReclaimedBytes
		}
		if s.cfg.Spans != nil {
			// Same span schema as the live server, on the simulated I/O clock:
			// the collection starts where the pre-collection clock stood and
			// ends after its own I/O. One trace format from gcsim to odbgcd.
			g := s.cfg.Spans.Start(span.KindGC, "collect", span.GCID(uint64(c.Index)), 0, int64(c.Before.AppIO+c.Before.GCIO))
			g.Seq = uint64(c.Index)
			g.SetCollection(c)
			end := int64(c.After.AppIO + c.After.GCIO)
			g.SetStage(span.StageService, end-g.Start)
			s.cfg.Spans.Finish(g, end, span.OutcomeOK)
		}
	}
	if s.obs != nil {
		s.obs.ObserveDecision(obs.DecisionOf(c, s.step, idle))
		if c.Collected {
			s.obs.ObserveCollection(obs.CollectionOf(c, s.step, s.curPhase))
		}
	}
	return nil
}

// record converts the control loop's record to the persisted one.
func (s *Simulator) record(c core.Collection) CollectionRecord {
	return CollectionRecord{
		Index:                 c.Index,
		Phase:                 s.curPhase,
		Clock:                 c.After,
		Interval:              c.Interval,
		Partition:             c.Result.Partition,
		ReclaimedBytes:        c.Result.ReclaimedBytes,
		ReclaimedObjects:      c.Result.ReclaimedObjects,
		LiveBytes:             c.Result.LiveBytes,
		PartitionPO:           c.Result.PartitionPO,
		IO:                    c.Result.IO,
		CumulativeIO:          c.CumulativeIO,
		DatabaseBytes:         c.DatabaseBytes,
		ActualGarbageBytes:    c.GarbageBytes,
		ActualGarbageFrac:     c.Frac(float64(c.GarbageBytes)),
		EstimatedGarbageBytes: c.Estimate,
		EstimatedGarbageFrac:  c.Frac(c.Estimate),
		TargetGarbageFrac:     c.Frac(c.Target),
		NextInterval:          c.NextInterval,
	}
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
	if s.cfg.Durable != nil {
		if err := s.cfg.Durable.Commit(); err != nil {
			return nil, fmt.Errorf("sim: final durable commit: %w", err)
		}
		if err := s.cfg.Durable.Checkpoint(); err != nil {
			return nil, fmt.Errorf("sim: final durable checkpoint: %w", err)
		}
	}
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
	if s.obs != nil {
		s.obs.ObserveRunEnd(obs.RunEnd{
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
		})
	}
	return r, nil
}
