package fault

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"
	"time"

	"odbgc/internal/core"
	"odbgc/internal/gc"
)

func TestIsTransient(t *testing.T) {
	te := &TransientError{Op: "read", Seq: 3}
	if !IsTransient(te) {
		t.Fatal("bare TransientError not classified")
	}
	if !IsTransient(fmt.Errorf("wrapped: %w", te)) {
		t.Fatal("wrapped TransientError not classified")
	}
	if IsTransient(errors.New("disk on fire")) {
		t.Fatal("ordinary error classified as transient")
	}
	if IsTransient(nil) {
		t.Fatal("nil classified as transient")
	}
}

func TestInjectorDeterministic(t *testing.T) {
	profile, err := LookupProfile("flaky-io")
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed int64) []bool {
		in := NewInjector(profile, seed)
		out := make([]bool, 2000)
		for i := range out {
			out[i] = in.BeforeOp(i%3 == 0) != nil
		}
		return out
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different fault schedules")
	}
	c := run(43)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical fault schedules")
	}
	count := 0
	for _, f := range a {
		if f {
			count++
		}
	}
	// ~1% reads + ~2% writes over 2000 ops: expect faults, but not a flood.
	if count == 0 || count > 200 {
		t.Fatalf("flaky-io injected %d/2000 faults, outside sane range", count)
	}
}

func TestInjectorBursts(t *testing.T) {
	p := Profile{BurstProb: 0.01, BurstLen: 4}
	in := NewInjector(p, 7)
	var runs []int
	cur := 0
	for i := 0; i < 10000; i++ {
		if in.BeforeOp(false) != nil {
			cur++
		} else if cur > 0 {
			runs = append(runs, cur)
			cur = 0
		}
	}
	if len(runs) == 0 {
		t.Fatal("no bursts fired in 10000 ops at 1% burst probability")
	}
	for _, r := range runs {
		// Bursts are 4 ops; adjacent bursts can chain into multiples of
		// longer runs, but a lone 1..3-run means the burst logic broke.
		if r < p.BurstLen {
			t.Fatalf("burst run of %d ops, want >= %d", r, p.BurstLen)
		}
	}
	st := in.Stats()
	if st.Bursts == 0 || st.Injected < uint64(len(runs)*p.BurstLen) {
		t.Fatalf("stats inconsistent with observed bursts: %+v vs %d runs", st, len(runs))
	}
}

func TestInjectorSnapshotResumesFaultStream(t *testing.T) {
	profile := Profile{ReadErrProb: 0.05, WriteErrProb: 0.05, BurstProb: 0.005, BurstLen: 3}
	in := NewInjector(profile, 99)
	for i := 0; i < 500; i++ {
		in.BeforeOp(i%2 == 0)
	}
	snap := in.Snapshot()

	tail := func(in *Injector) []bool {
		out := make([]bool, 500)
		for i := range out {
			out[i] = in.BeforeOp(i%2 == 0) != nil
		}
		return out
	}
	want := tail(in)

	resumed := NewInjector(profile, 0) // seed irrelevant: state overwritten
	if err := resumed.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := tail(resumed); !reflect.DeepEqual(got, want) {
		t.Fatal("restored injector diverged from original fault stream")
	}
	if err := resumed.Restore(InjectorState{BurstLeft: -1}); err == nil {
		t.Fatal("accepted negative burstLeft")
	}
}

func TestRetryRecoversFromTransients(t *testing.T) {
	calls := 0
	err := DefaultRetry.Do("scan", func() error {
		calls++
		if calls < 3 {
			return &TransientError{Op: "read", Seq: uint64(calls)}
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want success on 3rd call", err, calls)
	}
}

func TestRetryGivesUpAndWraps(t *testing.T) {
	cfg := RetryConfig{MaxAttempts: 3}
	calls := 0
	err := cfg.Do("flush", func() error {
		calls++
		return &TransientError{Op: "write", Seq: uint64(calls)}
	})
	if calls != 3 {
		t.Fatalf("calls=%d, want 3", calls)
	}
	if err == nil || !IsTransient(err) {
		t.Fatalf("give-up error should wrap the transient fault, got %v", err)
	}
}

func TestRetryPassesThroughPermanentErrors(t *testing.T) {
	boom := errors.New("corrupt superblock")
	calls := 0
	err := DefaultRetry.Do("scan", func() error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) || calls != 1 {
		t.Fatalf("err=%v calls=%d, want immediate pass-through", err, calls)
	}
}

func TestRetryBackoffSchedule(t *testing.T) {
	var delays []time.Duration
	cfg := RetryConfig{
		MaxAttempts: 5,
		BaseDelay:   time.Millisecond,
		MaxDelay:    4 * time.Millisecond,
		Sleep:       func(d time.Duration) { delays = append(delays, d) },
	}
	_ = cfg.Do("op", func() error { return &TransientError{} })
	want := []time.Duration{
		time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 4 * time.Millisecond,
	}
	if !reflect.DeepEqual(delays, want) {
		t.Fatalf("backoff schedule %v, want %v", delays, want)
	}
}

func TestCorruptReaderTruncates(t *testing.T) {
	src := bytes.Repeat([]byte{0xAA}, 1000)
	cr := NewCorruptReader(bytes.NewReader(src), CorruptConfig{TruncateAfter: 137}, 1)
	got, err := io.ReadAll(cr)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 137 {
		t.Fatalf("read %d bytes, want 137", len(got))
	}
	if cr.BytesRead() != 137 {
		t.Fatalf("BytesRead=%d, want 137", cr.BytesRead())
	}
}

func TestCorruptReaderBitFlipsDeterministic(t *testing.T) {
	src := make([]byte, 4096) // zeros: any nonzero byte is a flip
	read := func(seed int64) []byte {
		cr := NewCorruptReader(bytes.NewReader(src), CorruptConfig{BitFlipProb: 0.01}, seed)
		got, err := io.ReadAll(cr)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	a, b := read(5), read(5)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different corruption")
	}
	flips := 0
	for _, x := range a {
		if x != 0 {
			flips++
			if x&(x-1) != 0 {
				t.Fatalf("byte %08b has more than one bit flipped", x)
			}
		}
	}
	if flips == 0 || flips > 200 {
		t.Fatalf("%d flips in 4096 bytes at 1%%, outside sane range", flips)
	}
	if c := read(6); bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical corruption")
	}
}

func TestCorruptTraceRespectsProfile(t *testing.T) {
	src := bytes.NewReader(make([]byte, 100))
	off, err := LookupProfile("off")
	if err != nil {
		t.Fatal(err)
	}
	r, err := CorruptTrace(src, 100, off, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r != io.Reader(src) {
		t.Fatal("off profile should return the reader unchanged")
	}

	tc, err := LookupProfile("trace-corrupt")
	if err != nil {
		t.Fatal(err)
	}
	r, err = CorruptTrace(bytes.NewReader(make([]byte, 100)), 100, tc, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 90 {
		t.Fatalf("trace-corrupt on 100 bytes yielded %d, want 90", len(got))
	}
}

func TestLookupProfile(t *testing.T) {
	for _, name := range ProfileNames() {
		p, err := LookupProfile(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name != name {
			t.Fatalf("profile %q reports name %q", name, p.Name)
		}
	}
	if p, err := LookupProfile(""); err != nil || p.Name != "off" {
		t.Fatalf("empty name: p=%+v err=%v, want off", p, err)
	}
	if _, err := LookupProfile("molasses"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

// scriptedEst is a minimal estimator for ChaosEstimator tests.
type scriptedEst struct {
	val float64
	obs int
}

func (e *scriptedEst) Name() string                                          { return "scripted" }
func (e *scriptedEst) ObserveCollection(core.HeapState, gc.CollectionResult) { e.obs++ }
func (e *scriptedEst) EstimateGarbage(core.HeapState) float64                { return e.val }

// fakeHeapState implements core.HeapState with fixed values.
type fakeHeapState struct{ db int }

func (f *fakeHeapState) DatabaseBytes() int          { return f.db }
func (f *fakeHeapState) ActualGarbageBytes() int     { return 0 }
func (f *fakeHeapState) TotalCollectedBytes() uint64 { return 0 }
func (f *fakeHeapState) SumPartitionOverwrites() int { return 0 }
func (f *fakeHeapState) NumPartitions() int          { return 1 }

func TestChaosEstimatorDropout(t *testing.T) {
	profile, err := LookupProfile("estimator-dropout")
	if err != nil {
		t.Fatal(err)
	}
	inner := &scriptedEst{val: 1234}
	ce, err := NewChaosEstimator(inner, profile, 11)
	if err != nil {
		t.Fatal(err)
	}
	h := &fakeHeapState{db: 100000}
	var nans, garbage, clean int
	for i := 0; i < 2000; i++ {
		switch v := ce.EstimateGarbage(h); {
		case math.IsNaN(v):
			nans++
		case v == 1234:
			clean++
		default:
			garbage++
			if v < 0 || v > 4*float64(h.DatabaseBytes()) {
				t.Fatalf("garbage value %v outside [0, 4*db]", v)
			}
		}
	}
	if nans == 0 || garbage == 0 || clean == 0 {
		t.Fatalf("nans=%d garbage=%d clean=%d: every class should appear", nans, garbage, clean)
	}
	if ce.Dropped() != uint64(nans) || ce.Garbled() != uint64(garbage) {
		t.Fatalf("counters dropped=%d garbled=%d disagree with observed %d/%d",
			ce.Dropped(), ce.Garbled(), nans, garbage)
	}
	ce.ObserveCollection(h, gc.CollectionResult{})
	if inner.obs != 1 {
		t.Fatal("observation did not reach the wrapped estimator")
	}
}

func TestChaosEstimatorSnapshotRoundTrip(t *testing.T) {
	profile, err := LookupProfile("estimator-dropout")
	if err != nil {
		t.Fatal(err)
	}
	h := &fakeHeapState{db: 100000}
	ce, err := NewChaosEstimator(&scriptedEst{val: 500}, profile, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		ce.EstimateGarbage(h)
	}
	state, err := ce.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewChaosEstimator(&scriptedEst{val: 500}, profile, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.RestoreState(state); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		a, b := ce.EstimateGarbage(h), twin.EstimateGarbage(h)
		if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
			t.Fatalf("step %d: diverged %v vs %v", i, a, b)
		}
	}
	if ce.Dropped() != twin.Dropped() || ce.Garbled() != twin.Garbled() {
		t.Fatal("counters diverged after restore")
	}
}

func TestChaosEstimatorRejectsBadProbabilities(t *testing.T) {
	if _, err := NewChaosEstimator(&scriptedEst{}, Profile{EstNaNProb: 0.7, EstGarbageProb: 0.7}, 1); err == nil {
		t.Fatal("accepted probabilities summing over 1")
	}
}
