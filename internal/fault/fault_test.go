package fault

import (
	"bytes"
	"io"
	"math"
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/gc"
)

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

func TestChaosEstimatorRejectsBadProbabilities(t *testing.T) {
	if _, err := NewChaosEstimator(&scriptedEst{}, Profile{EstNaNProb: 0.7, EstGarbageProb: 0.7}, 1); err == nil {
		t.Fatal("accepted probabilities summing over 1")
	}
}
