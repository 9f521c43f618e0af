package sim

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/obs"
	"odbgc/internal/oo7"
	"odbgc/internal/simerr"
)

// nopObserver is an embeddable no-op obs.Observer.
type nopObserver struct{}

func (nopObserver) ObserveRunStart(obs.RunStart)         {}
func (nopObserver) ObservePhase(obs.PhaseChange)         {}
func (nopObserver) ObserveDecision(obs.Decision)         {}
func (nopObserver) ObserveCollection(obs.Collection)     {}
func (nopObserver) ObserveFault(obs.Fault)               {}
func (nopObserver) ObserveCheckpoint(obs.CheckpointMark) {}
func (nopObserver) ObserveProgress(obs.Progress)         {}
func (nopObserver) ObserveRunEnd(obs.RunEnd)             {}

// gaugeObserver tracks how many runs are between RunStart and RunEnd, and
// the high-water mark of that gauge.
type gaugeObserver struct {
	nopObserver
	cur, max atomic.Int32
}

func (g *gaugeObserver) ObserveRunStart(obs.RunStart) {
	cur := g.cur.Add(1)
	for {
		max := g.max.Load()
		if cur <= max || g.max.CompareAndSwap(max, cur) {
			return
		}
	}
}

func (g *gaugeObserver) ObserveRunEnd(obs.RunEnd) { g.cur.Add(-1) }

func saioRunnerConfig(t *testing.T, n int) RunnerConfig {
	t.Helper()
	traces, err := GenerateTraces(oo7.SmallPrime(3), 1, n)
	if err != nil {
		t.Fatal(err)
	}
	return RunnerConfig{
		Traces: traces,
		MakePolicy: func(int) (core.RatePolicy, error) {
			return core.NewSAIO(core.SAIOConfig{Frac: 0.20})
		},
	}
}

func TestRunManyRespectsParallelBound(t *testing.T) {
	cfg := saioRunnerConfig(t, 6)
	cfg.Parallel = 2
	gauge := &gaugeObserver{}
	cfg.MakeObserver = func(int) obs.Observer { return gauge }
	if _, err := RunMany(cfg); err != nil {
		t.Fatal(err)
	}
	if max := gauge.max.Load(); max > 2 {
		t.Errorf("observed %d concurrent runs, bound was 2", max)
	}
	if gauge.max.Load() < 1 {
		t.Error("no runs observed at all")
	}
	if cur := gauge.cur.Load(); cur != 0 {
		t.Errorf("%d runs still open after RunMany returned", cur)
	}
}

func TestRunManyPolicyFailureClassification(t *testing.T) {
	cfg := saioRunnerConfig(t, 1)
	cfg.MakePolicy = func(int) (core.RatePolicy, error) {
		return nil, errors.New("bad parameters")
	}
	_, err := RunMany(cfg)
	if !errors.Is(err, simerr.ErrPolicyFailure) {
		t.Errorf("policy construction failure not classified: %v", err)
	}
}

// panickyPolicy panics at its first decision: a stand-in for a bug anywhere
// under the simulation loop.
type panickyPolicy struct{}

func (panickyPolicy) Name() string                  { return "panicky" }
func (panickyPolicy) ShouldCollect(core.Clock) bool { panic("injected test panic") }
func (panickyPolicy) AfterCollection(core.Clock, core.HeapState, gc.CollectionResult) {
}

// TestRunManyConvertsPanic: a panic in one run of a batch comes back as an
// error naming that run, carrying the panic value and a stack, and the
// batch's other runs are not handed back as if it had succeeded.
func TestRunManyConvertsPanic(t *testing.T) {
	for _, parallel := range []int{1, 3} {
		cfg := saioRunnerConfig(t, 3)
		cfg.Parallel = parallel
		inner := cfg.MakePolicy
		cfg.MakePolicy = func(run int) (core.RatePolicy, error) {
			if run == 1 {
				return panickyPolicy{}, nil
			}
			return inner(run)
		}
		cfg.EventsDir = t.TempDir()
		mr, err := RunMany(cfg)
		if mr != nil || err == nil {
			t.Fatalf("parallel %d: result %v, err %v; want nil result and an error", parallel, mr, err)
		}
		for _, want := range []string{"run 1:", "injected test panic", "panickyPolicy.ShouldCollect"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("parallel %d: error lacks %q: %v", parallel, want, err)
			}
		}
		// The panicking run's event log was still closed at a line boundary.
		f, err := os.Open(filepath.Join(cfg.EventsDir, "run-001.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		_, err = obs.ReadAll(f)
		f.Close()
		if err != nil {
			t.Errorf("parallel %d: event log of the panicking run does not validate: %v", parallel, err)
		}
	}
}

func TestRunManyContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := saioRunnerConfig(t, 2)
	_, err := RunManyContext(ctx, cfg)
	if err == nil {
		t.Fatal("cancelled batch reported success")
	}
	if got := simerr.Classify(err); got != simerr.ClassCanceled {
		t.Errorf("classified %s: %v", got, err)
	}
}

func TestRunManyParallelismIsInvisible(t *testing.T) {
	seq := saioRunnerConfig(t, 3)
	seq.Parallel = 1
	par := saioRunnerConfig(t, 3)
	par.Parallel = 3

	a, err := RunMany(seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMany(par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("results differ between Parallel=1 and Parallel=3")
	}
}

func TestGenerateTracesContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := GenerateTracesContext(ctx, oo7.SmallPrime(3), 1, 3, 2)
	if err == nil {
		t.Fatal("cancelled generation reported success")
	}
	if got := simerr.Classify(err); got != simerr.ClassCanceled {
		t.Errorf("classified %s: %v", got, err)
	}
}
