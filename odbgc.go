// Package odbgc is a trace-driven simulation library for studying garbage
// collection rate control in object databases. It reproduces the system of
// Cook, Klauser, Zorn, and Wolf, "Semi-automatic, Self-adaptive Control of
// Garbage Collection Rates in Object Databases" (SIGMOD 1996): a partitioned
// copying collector over a paged object store, driven by OO7 benchmark
// application traces, with the paper's two adaptive collection-rate
// policies:
//
//   - SAIO holds garbage-collector I/O at a requested percentage of total
//     I/O operations;
//   - SAGA holds database garbage at a requested percentage of database
//     size, using a pluggable garbage estimator (Oracle, CGS/CB, FGS/HB).
//
// # Quick start
//
//	tr, err := odbgc.GenerateOO7Trace(odbgc.OO7Options{Connectivity: 3, Seed: 1})
//	policy, err := odbgc.NewSAIO(odbgc.SAIOConfig{Frac: 0.10})
//	res, err := odbgc.Simulate(tr, policy, odbgc.SimOptions{})
//	fmt.Printf("collector I/O share: %.2f%%\n", res.GCIOFrac*100)
//
// The library is layered: this package is a facade over internal packages
// (objstore, storage, gc, core, oo7, sim, experiments) and re-exports the
// types needed to configure runs, implement custom rate policies, and
// regenerate every table and figure in the paper's evaluation.
package odbgc

import (
	"fmt"
	"io"

	"odbgc/internal/core"
	"odbgc/internal/experiments"
	"odbgc/internal/gc"
	"odbgc/internal/oo7"
	"odbgc/internal/sim"
	"odbgc/internal/storage"
	"odbgc/internal/trace"
	"odbgc/internal/workload"
)

// Re-exported core types. RatePolicy is the extension point: implement it
// to plug a custom collection-rate policy into the simulator (see
// examples/custompolicy).
type (
	// Clock is the policy-visible time snapshot (application I/O,
	// collector I/O, pointer overwrites).
	Clock = core.Clock
	// RatePolicy decides when collections happen.
	RatePolicy = core.RatePolicy
	// HeapState is the database view a RatePolicy or Estimator reads.
	HeapState = core.HeapState
	// Estimator estimates current database garbage for the SAGA policy.
	Estimator = core.Estimator
	// SAIOConfig parameterizes the SAIO policy.
	SAIOConfig = core.SAIOConfig
	// SAGAConfig parameterizes the SAGA policy.
	SAGAConfig = core.SAGAConfig
	// SAIO is the semi-automatic I/O-percentage policy (§2.2).
	SAIO = core.SAIO
	// SAGA is the semi-automatic garbage-percentage policy (§2.3).
	SAGA = core.SAGA
	// FixedRate collects every N pointer overwrites (Figure 1's strawman).
	FixedRate = core.FixedRate
	// Coupled is the §5 future-work policy: SAIO scheduling scaled by the
	// SAGA estimator's garbage pressure.
	Coupled = core.Coupled
	// CoupledConfig parameterizes the Coupled policy.
	CoupledConfig = core.CoupledConfig
	// Opportunistic wraps any policy with §5's quiescence opportunism.
	Opportunistic = core.Opportunistic
	// PIController is a textbook PI baseline for SAGA.
	PIController = core.PIController
	// PIConfig parameterizes the PI controller.
	PIConfig = core.PIConfig

	// Trace is an application event stream.
	Trace = trace.Trace
	// Event is a single trace record.
	Event = trace.Event
	// Label names a phase event's phase (MakeLabel, Label.String).
	Label = trace.Label
	// TraceStats summarizes a trace.
	TraceStats = trace.Stats

	// OO7Params are the benchmark database parameters (Table 1).
	OO7Params = oo7.Params
	// OO7Info summarizes a generated database's structure.
	OO7Info = oo7.Info
	// ChurnParams describe the non-OO7 directory/file churn workload.
	ChurnParams = workload.ChurnParams
	// OO7Generator builds OO7 traces phase by phase and exposes the wider
	// OO7 operation suite (T2/T6/Q1/Q4/Q7/ScanManual/ReplaceComposites)
	// for composing custom workloads.
	OO7Generator = oo7.Generator
	// T2Variant selects the update pattern of an OO7 T2 traversal.
	T2Variant = oo7.T2Variant

	// StorageConfig sets page/partition/buffer geometry.
	StorageConfig = storage.Config
	// IOStats counts reads and writes by attribution class.
	IOStats = storage.IOStats
	// SelectionPolicy picks the partition to collect.
	SelectionPolicy = gc.SelectionPolicy
	// Heap couples the object store with placement and collector state.
	Heap = gc.Heap
	// CollectionResult describes one collection.
	CollectionResult = gc.CollectionResult

	// Result summarizes a simulation run.
	Result = sim.Result
	// CollectionRecord is one collection in a Result's time series: the
	// control loop's record of it.
	CollectionRecord = core.Collection
	// MultiResult aggregates several seeded runs.
	MultiResult = sim.MultiResult
	// Report is one regenerated paper table or figure.
	Report = experiments.Report
	// ExperimentOptions controls experiment scale.
	ExperimentOptions = experiments.Options
)

// Policy constructors re-exported from the core package.
var (
	// NewSAIO returns a SAIO policy.
	NewSAIO = core.NewSAIO
	// NewSAGA returns a SAGA policy with the given estimator.
	NewSAGA = core.NewSAGA
	// NewFixedRate returns a fixed-rate policy.
	NewFixedRate = core.NewFixedRate
	// NewEstimator builds an estimator by name: "oracle", "cgs-cb",
	// "fgs-hb".
	NewEstimator = core.NewEstimator
	// NewCoupled returns the SAIO+SAGA coupled policy.
	NewCoupled = core.NewCoupled
	// NewOpportunistic wraps a policy with idle-time collection down to a
	// garbage floor.
	NewOpportunistic = core.NewOpportunistic
	// NewPIController returns the PI garbage-level controller.
	NewPIController = core.NewPIController
	// NewFGSWindow returns the sliding-window FGS estimator.
	NewFGSWindow = core.NewFGSWindow
	// NewFGSPerPartition returns the per-partition FGS estimator.
	NewFGSPerPartition = core.NewFGSPerPartition
	// NewFGSHB returns an FGS/HB estimator with the given history factor.
	NewFGSHB = core.NewFGSHB
	// NewCGSCB returns a CGS/CB estimator.
	NewCGSCB = core.NewCGSCB
	// NewSelectionPolicy builds a partition-selection policy by name:
	// "updated-pointer", "random", "round-robin", "oracle-max-garbage".
	NewSelectionPolicy = gc.NewSelectionPolicy
	// MakeLabel interns a phase name for the life of the process.
	MakeLabel = trace.MakeLabel
	// NewOO7Generator returns a phase-by-phase OO7 trace generator.
	NewOO7Generator = oo7.NewGenerator
	// SmallPrime returns the paper's Small' OO7 parameters for a
	// connectivity of 3, 6 or 9.
	SmallPrime = oo7.SmallPrime
	// Small returns the original OO7 Small parameters.
	Small = oo7.Small
	// DefaultStorage returns the paper's geometry: 8 KB pages, 12-page
	// partitions, buffer of one partition.
	DefaultStorage = storage.DefaultConfig
)

// OracleEstimator knows the exact garbage content (simulation-only).
type OracleEstimator = core.OracleEstimator

// NeverCollect disables collection (the no-GC baseline).
type NeverCollect = core.NeverCollect

// OO7Options selects an OO7 workload variant.
type OO7Options struct {
	// Connectivity is NumConnPerAtomic: 3 (default), 6, or 9.
	Connectivity int
	// Seed drives the generator's randomness; runs differing only in seed
	// reproduce the paper's multi-run methodology.
	Seed int64
	// Params overrides the database parameters entirely when non-nil.
	Params *OO7Params
}

// GenerateOO7Trace builds a full four-phase OO7 application trace
// (GenDB, Reorg1, Traverse, Reorg2).
func GenerateOO7Trace(opts OO7Options) (*Trace, error) {
	p := oo7.SmallPrime(3)
	if opts.Connectivity != 0 {
		p = oo7.SmallPrime(opts.Connectivity)
	}
	if opts.Params != nil {
		p = *opts.Params
	}
	return oo7.FullTrace(p, opts.Seed)
}

// SimOptions configure a simulation run.
type SimOptions struct {
	// Storage geometry; the zero value uses the paper's defaults.
	Storage StorageConfig
	// Selection picks partitions to collect; nil means UPDATEDPOINTER.
	// Used by Simulate only (selection policies are stateful, so
	// SimulateMany builds one per run via MakeSelection).
	Selection SelectionPolicy
	// MakeSelection builds a fresh selection policy per run for
	// SimulateMany; nil means UPDATEDPOINTER for every run.
	MakeSelection func(run int) (SelectionPolicy, error)
	// PreambleCollections excludes the cold start from summary means
	// (default 10; negative disables).
	PreambleCollections int
}

// Simulate replays a trace under the given rate policy and returns the
// run's measurements.
func Simulate(tr *Trace, policy RatePolicy, opts SimOptions) (*Result, error) {
	if tr == nil {
		return nil, fmt.Errorf("odbgc: nil trace")
	}
	s, err := sim.New(sim.Config{
		Storage:             opts.Storage,
		Policy:              policy,
		Selection:           opts.Selection,
		PreambleCollections: opts.PreambleCollections,
	})
	if err != nil {
		return nil, err
	}
	return s.Run(tr)
}

// SimulateStream replays a binary trace stream (as written by WriteTrace or
// cmd/oo7gen) under the given policy without materializing it in memory.
func SimulateStream(r io.Reader, policy RatePolicy, opts SimOptions) (*Result, error) {
	rd, err := trace.NewReader(r)
	if err != nil {
		return nil, err
	}
	s, err := sim.New(sim.Config{
		Storage:             opts.Storage,
		Policy:              policy,
		Selection:           opts.Selection,
		PreambleCollections: opts.PreambleCollections,
	})
	if err != nil {
		return nil, err
	}
	return s.RunStream(rd)
}

// WriteTrace encodes a trace in the compact binary format.
func WriteTrace(w io.Writer, tr *Trace) error { return trace.WriteAll(w, tr) }

// ReadTrace decodes a binary trace written by WriteTrace.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.ReadAll(r) }

// SimulateMany replays one trace per seed with fresh policies built by
// makePolicy and aggregates results (mean with min/max bars), the paper's
// multi-run methodology.
func SimulateMany(traces []*Trace, makePolicy func(run int) (RatePolicy, error), opts SimOptions) (*MultiResult, error) {
	return sim.RunMany(sim.RunnerConfig{
		Traces:              traces,
		MakePolicy:          makePolicy,
		MakeSelection:       opts.MakeSelection,
		Storage:             opts.Storage,
		PreambleCollections: opts.PreambleCollections,
	})
}

// GenerateTraces builds n OO7 traces with consecutive seeds.
func GenerateTraces(p OO7Params, baseSeed int64, n int) ([]*Trace, error) {
	return sim.GenerateTraces(p, baseSeed, n)
}

// DefaultChurn returns the default parameters of the non-OO7 churn
// workload (see GenerateChurnTrace).
func DefaultChurn() ChurnParams { return workload.DefaultChurn() }

// GenerateChurnTrace builds the five-phase directory/file churn workload —
// a contrasting application for probing the policies outside OO7 (leaf
// garbage, skewed updates, bursty phases).
func GenerateChurnTrace(p ChurnParams, seed int64) (*Trace, error) {
	return workload.Churn(p, seed)
}

// QueueParams describe the sliding-window (FIFO log) workload.
type QueueParams = workload.QueueParams

// DefaultQueue returns the default sliding-window workload parameters.
func DefaultQueue() QueueParams { return workload.DefaultQueue() }

// GenerateQueueTrace builds the sliding-window workload: garbage
// concentrates in the oldest partitions while all overwrites hit one
// anchor object — a stress case for overwrite-based partition selection.
func GenerateQueueTrace(p QueueParams, seed int64) (*Trace, error) {
	return workload.Queue(p, seed)
}

// ValidateTrace replays a trace against a scratch store, checking
// referential integrity and oracle-annotation consistency.
func ValidateTrace(tr *Trace) error { return trace.Validate(tr) }

// ComputeTraceStats summarizes a trace.
func ComputeTraceStats(tr *Trace) TraceStats { return trace.ComputeStats(tr) }

// ExperimentNames lists the paper experiments in order.
func ExperimentNames() []string { return experiments.Names() }

// RunExperiment regenerates one paper table or figure by name ("table1",
// "fig1", "fig2", "fig4", "fig5", "fig6", "fig7a", "fig7b", "fig8").
func RunExperiment(name string, opts ExperimentOptions) (*Report, error) {
	return experiments.NewRunner(opts).Run(name)
}

// RunAllExperiments regenerates every paper table and figure.
func RunAllExperiments(opts ExperimentOptions) ([]*Report, error) {
	return experiments.NewRunner(opts).All()
}
