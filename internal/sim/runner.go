package sim

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"

	"odbgc/internal/core"
	"odbgc/internal/fault"
	"odbgc/internal/gc"
	"odbgc/internal/metrics"
	"odbgc/internal/obs"
	"odbgc/internal/oo7"
	"odbgc/internal/simerr"
	"odbgc/internal/storage"
	"odbgc/internal/trace"
)

// RunnerConfig describes a multi-seed experiment: the same policy
// configuration replayed over several independently generated traces, as in
// §4.1 ("each data point shows the mean of 10 runs"). Runs execute on a
// bounded worker pool (they are independent by construction); results are
// ordered by trace index regardless, and depend on nothing but this config.
type RunnerConfig struct {
	// Traces are the per-seed input traces (use GenerateTraces).
	Traces []*trace.Trace
	// MakePolicy builds a fresh policy for run i. Required: policies carry
	// controller state and must not be shared across runs.
	MakePolicy func(run int) (core.RatePolicy, error)
	// MakeSelection builds a fresh selection policy per run; nil means
	// UPDATEDPOINTER for every run.
	MakeSelection func(run int) (gc.SelectionPolicy, error)
	// Storage geometry; zero value means storage.DefaultConfig().
	Storage storage.Config
	// PreambleCollections as in Config.
	PreambleCollections int
	// FaultProfile, when it carries storage-fault rates, runs every
	// simulation under fault injection; run i is seeded with FaultSeed+i so
	// each run sees an independent but reproducible fault schedule.
	FaultProfile fault.Profile
	FaultSeed    int64
	// EventsDir, when set, writes each run's structured event log to
	// EventsDir/run-NNN.jsonl (see internal/obs).
	EventsDir string
	// Parallel bounds how many runs execute concurrently. Zero or negative
	// means runtime.GOMAXPROCS(0); the bound is additionally capped at the
	// number of traces.
	Parallel int
	// MakeObserver, when set, supplies an extra per-run observer composed
	// with the EventsDir JSONL writer. The observer is invoked from worker
	// goroutines; one run's observer is never called concurrently with
	// itself, but observers for different runs run in parallel.
	MakeObserver func(run int) obs.Observer
}

// MultiResult aggregates per-run summaries.
type MultiResult struct {
	Runs []*Result
	// GCIO aggregates the per-run collector I/O fraction.
	GCIO metrics.Aggregate
	// Garbage aggregates the per-run sampled mean garbage fraction.
	Garbage metrics.Aggregate
	// Collections aggregates per-run collection counts.
	Collections metrics.Aggregate
	// TotalIO aggregates per-run total I/O operations (whole run).
	TotalIO metrics.Aggregate
	// Reclaimed aggregates per-run total reclaimed bytes (whole run).
	Reclaimed metrics.Aggregate
}

// RunMany executes one simulation per trace on a bounded worker pool and
// aggregates the summaries. It is RunManyContext under context.Background().
func RunMany(cfg RunnerConfig) (*MultiResult, error) {
	return RunManyContext(context.Background(), cfg)
}

// RunManyContext fans the traces over at most cfg.Parallel workers; each
// worker builds run i's policy, selection and observers, replays trace i
// under ctx, and turns a panic anywhere beneath it into an error naming the
// run. Cancelling ctx stops every in-flight run at its next event boundary.
// Any failed run fails the batch (see forEach for which error is returned);
// all errors classify under the simerr taxonomy.
func RunManyContext(ctx context.Context, cfg RunnerConfig) (*MultiResult, error) {
	n := len(cfg.Traces)
	if n == 0 {
		return nil, fmt.Errorf("sim: RunMany requires at least one trace")
	}
	if cfg.MakePolicy == nil {
		return nil, fmt.Errorf("sim: RunMany requires MakePolicy")
	}
	if cfg.EventsDir != "" {
		if err := os.MkdirAll(cfg.EventsDir, 0o755); err != nil {
			return nil, fmt.Errorf("sim: creating events dir: %w", err)
		}
	}

	results := make([]*Result, n)
	err := forEach(ctx, n, cfg.Parallel, func(i int) (err error) {
		results[i], err = runOne(ctx, cfg, i)
		return err
	})
	if err != nil {
		return nil, err
	}

	out := &MultiResult{Runs: results}
	var gcio, garb, colls, totio, recl []float64
	for _, res := range results {
		if res.MeasurementStarted {
			gcio = append(gcio, res.GCIOFrac)
			garb = append(garb, res.GarbageFrac)
		}
		colls = append(colls, float64(len(res.Collections)))
		totio = append(totio, float64(res.Final.TotalIO()))
		recl = append(recl, float64(res.TotalReclaimed))
	}
	out.GCIO = metrics.Aggregated(gcio)
	out.Garbage = metrics.Aggregated(garb)
	out.Collections = metrics.Aggregated(colls)
	out.TotalIO = metrics.Aggregated(totio)
	out.Reclaimed = metrics.Aggregated(recl)
	return out, nil
}

// runOne executes run i: fresh policy, selection and observers, one replay
// of trace i. The panic barrier is here, on the worker's own stack, so a bug
// in a policy or anywhere under the simulation loop fails the batch with the
// run's index and a stack instead of taking the process down; the event log
// is closed on every path, a panic included.
func runOne(ctx context.Context, cfg RunnerConfig, i int) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("sim: run %d: panic: %v\n%s", i, p, debug.Stack())
		}
	}()
	policy, err := cfg.MakePolicy(i)
	if err != nil {
		return nil, fmt.Errorf("sim: %w",
			simerr.WrapPolicyFailure(fmt.Sprintf("building policy for run %d", i), err))
	}
	var sel gc.SelectionPolicy
	if cfg.MakeSelection != nil {
		sel, err = cfg.MakeSelection(i)
		if err != nil {
			return nil, fmt.Errorf("sim: %w",
				simerr.WrapPolicyFailure(fmt.Sprintf("building selection for run %d", i), err))
		}
	}
	var observers []obs.Observer
	if cfg.EventsDir != "" {
		f, ferr := os.Create(filepath.Join(cfg.EventsDir, fmt.Sprintf("run-%03d.jsonl", i)))
		if ferr != nil {
			return nil, fmt.Errorf("sim: creating event log for run %d: %w", i, ferr)
		}
		events := obs.NewJSONLWriter(f)
		defer func() {
			if cerr := events.Close(); cerr != nil && err == nil {
				res, err = nil, fmt.Errorf("sim: run %d: writing event log: %w", i, cerr)
			}
		}()
		observers = append(observers, events)
	}
	if cfg.MakeObserver != nil {
		if o := cfg.MakeObserver(i); o != nil {
			observers = append(observers, o)
		}
	}
	s, err := New(Config{
		Storage:             cfg.Storage,
		Policy:              policy,
		Selection:           sel,
		PreambleCollections: cfg.PreambleCollections,
		FaultProfile:        cfg.FaultProfile,
		FaultSeed:           cfg.FaultSeed + int64(i),
		Observer:            obs.NewMulti(observers...),
	})
	if err == nil {
		res, err = s.RunContext(ctx, cfg.Traces[i])
	}
	if err != nil {
		return nil, fmt.Errorf("sim: run %d: %w", i, err)
	}
	return res, nil
}

// forEach calls fn(i) for every i in [0, n) on at most parallel goroutines
// (zero or negative means runtime.GOMAXPROCS(0)) and returns once all of
// them have. Cancelling ctx stops the hand-out of further indices. The error
// returned is the lowest-indexed failure that is not a cancellation — work
// is deterministic by index, so that is the most reproducible lead — and a
// cancellation only when nothing genuinely failed.
func forEach(ctx context.Context, n, parallel int, fn func(i int) error) error {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > n {
		parallel = n
	}
	errs := make([]error, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				errs[i] = fn(i)
			}
		}()
	}
	fed := 0
feed:
	for ; fed < n; fed++ {
		select {
		case <-ctx.Done():
			break feed
		case jobs <- fed:
		}
	}
	close(jobs)
	wg.Wait()

	var canceled error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if simerr.Classify(err) != simerr.ClassCanceled {
			return err
		}
		if canceled == nil {
			canceled = err
		}
	}
	if canceled == nil && fed < n {
		canceled = fmt.Errorf("sim: interrupted after starting %d of %d jobs: %w",
			fed, n, simerr.FromContext(ctx.Err()))
	}
	return canceled
}

// GenerateTraces builds n full four-phase OO7 traces with seeds base,
// base+1, … base+n-1, on a bounded worker pool (each generator is
// independent). Traces are independent of policy configuration, so one set
// can be reused across a whole parameter sweep.
func GenerateTraces(p oo7.Params, base int64, n int) ([]*trace.Trace, error) {
	return GenerateTracesContext(context.Background(), p, base, n, 0)
}

// GenerateTracesContext is GenerateTraces under a context and an explicit
// concurrency bound (zero or negative means runtime.GOMAXPROCS(0)).
// Cancelling ctx stops generation promptly and returns an error classified
// under the simerr taxonomy.
func GenerateTracesContext(ctx context.Context, p oo7.Params, base int64, n int, parallel int) ([]*trace.Trace, error) {
	traces := make([]*trace.Trace, n)
	err := forEach(ctx, n, parallel, func(i int) error {
		// A generation cannot be interrupted, so one nobody wants is not begun.
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("sim: generating trace %d: %w", i, simerr.FromContext(cerr))
		}
		tr, err := oo7.FullTrace(p, base+int64(i))
		if err != nil {
			return fmt.Errorf("sim: generating trace %d: %w", i, err)
		}
		traces[i] = tr
		return nil
	})
	if err != nil {
		return nil, err
	}
	return traces, nil
}
