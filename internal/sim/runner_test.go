package sim

import (
	"errors"
	"strings"
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/objstore"
	"odbgc/internal/oo7"
	"odbgc/internal/simerr"
	"odbgc/internal/storage"
	"odbgc/internal/trace"
)

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing policy accepted")
	}
	pol, _ := core.NewFixedRate(100)
	if _, err := New(Config{Policy: pol, Storage: storage.Config{PageSize: -1, PagesPerPartition: 1, BufferPages: 1}}); err == nil {
		t.Error("bad storage config accepted")
	}
}

func TestNeverCollectBaseline(t *testing.T) {
	tr := smallTrace(t, 3, 6)
	s, err := New(Config{Policy: core.NeverCollect{}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Collections) != 0 {
		t.Fatalf("NeverCollect ran %d collections", len(res.Collections))
	}
	if res.Final.GCIO() != 0 {
		t.Errorf("GC I/O without collections: %d", res.Final.GCIO())
	}
	if res.TotalReclaimed != 0 {
		t.Errorf("reclaimed %d bytes without collections", res.TotalReclaimed)
	}
	// All garbage ever created is still in the database.
	if res.FinalGarbage != int(res.TotalGarbage) {
		t.Errorf("final garbage %d != total created %d", res.FinalGarbage, res.TotalGarbage)
	}
	// With zero collections, the whole run is the measurement window.
	if res.EffectivePreamble != 0 || !res.MeasurementStarted {
		t.Errorf("preamble = %d, started = %v", res.EffectivePreamble, res.MeasurementStarted)
	}
}

func TestAdaptivePreamble(t *testing.T) {
	tr := smallTrace(t, 3, 6)
	// A huge fixed interval yields very few collections; the effective
	// preamble must shrink to half of them.
	pol, err := core.NewFixedRate(4000)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Policy: pol, PreambleCollections: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Collections) >= 20 {
		t.Fatalf("setup: expected few collections, got %d", len(res.Collections))
	}
	if want := len(res.Collections) / 2; res.EffectivePreamble != want {
		t.Errorf("effective preamble = %d, want %d", res.EffectivePreamble, want)
	}
	if !res.MeasurementStarted {
		t.Error("measurement window empty")
	}
}

func TestPreambleDisabled(t *testing.T) {
	tr := smallTrace(t, 3, 6)
	pol, err := core.NewFixedRate(200)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Policy: pol, PreambleCollections: -1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.EffectivePreamble != 0 {
		t.Errorf("preamble = %d with preamble disabled", res.EffectivePreamble)
	}
	if res.MeasuredIO != res.Final {
		t.Errorf("measured I/O %+v != final %+v", res.MeasuredIO, res.Final)
	}
}

func TestRunManyAggregates(t *testing.T) {
	traces, err := GenerateTraces(oo7.SmallPrime(3), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := RunMany(RunnerConfig{
		Traces: traces,
		MakePolicy: func(int) (core.RatePolicy, error) {
			return core.NewSAIO(core.SAIOConfig{Frac: 0.20})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.Runs) != 3 {
		t.Fatalf("runs = %d", len(mr.Runs))
	}
	if mr.GCIO.N != 3 {
		t.Errorf("GCIO aggregate over %d runs", mr.GCIO.N)
	}
	if mr.GCIO.Min > mr.GCIO.Mean || mr.GCIO.Mean > mr.GCIO.Max {
		t.Errorf("aggregate ordering broken: %+v", mr.GCIO)
	}
	if mr.GCIO.Mean < 0.15 || mr.GCIO.Mean > 0.25 {
		t.Errorf("SAIO 20%%: mean achieved %.4f", mr.GCIO.Mean)
	}
}

func TestRunManyValidation(t *testing.T) {
	if _, err := RunMany(RunnerConfig{}); err == nil {
		t.Error("empty config accepted")
	}
	traces, err := GenerateTraces(oo7.SmallPrime(3), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunMany(RunnerConfig{Traces: traces}); err == nil {
		t.Error("missing MakePolicy accepted")
	}
}

func TestRunManyCustomSelection(t *testing.T) {
	traces, err := GenerateTraces(oo7.SmallPrime(3), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := RunMany(RunnerConfig{
		Traces: traces,
		MakePolicy: func(int) (core.RatePolicy, error) {
			return core.NewFixedRate(300)
		},
		MakeSelection: func(run int) (gc.SelectionPolicy, error) {
			return gc.NewSelectionPolicy("round-robin", int64(run))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if mr.Runs[0].SelectionName != "round-robin" {
		t.Errorf("selection = %q", mr.Runs[0].SelectionName)
	}
}

// TestSelectionPolicyMatters: UPDATEDPOINTER should reclaim at least as
// much garbage as round-robin selection at the same collection rate.
func TestSelectionPolicyMatters(t *testing.T) {
	tr := smallTrace(t, 3, 6)
	run := func(selName string) uint64 {
		pol, err := core.NewFixedRate(300)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := gc.NewSelectionPolicy(selName, 1)
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Policy: pol, Selection: sel})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalReclaimed
	}
	up := run("updated-pointer")
	rr := run("round-robin")
	t.Logf("reclaimed: updated-pointer %d, round-robin %d", up, rr)
	if up < rr {
		t.Errorf("updated-pointer (%d) reclaimed less than round-robin (%d)", up, rr)
	}
}

func TestRunRejectsCorruptTrace(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(trace.Event{Kind: trace.KindAccess, OID: 42}) // access before create
	pol, _ := core.NewFixedRate(100)
	s, err := New(Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(tr)
	if err == nil || !strings.Contains(err.Error(), "absent") {
		t.Errorf("corrupt trace error = %v", err)
	}
}

// TestRunClassifiesFarOID: a create whose OID was damaged into the far
// distance (fault.CorruptTrace flips bits) fails as a corrupt trace, and the
// object table is not sized by it.
func TestRunClassifiesFarOID(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(trace.Event{Kind: trace.KindCreate, OID: 1, Size: 10})
	tr.Append(trace.Event{Kind: trace.KindCreate, OID: 2 | 1<<58, Size: 10})
	pol, _ := core.NewFixedRate(100)
	s, err := New(Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(tr)
	if !errors.Is(err, simerr.ErrCorruptTrace) || simerr.Classify(err) != simerr.ClassCorruptTrace {
		t.Fatalf("run over a far OID = %v (class %s), want a corrupt-trace error", err, simerr.Classify(err))
	}
	if s.Heap().Store().Len() != 1 || s.Heap().Store().NextOID() != 2 {
		t.Errorf("refused create changed the store: %d objects, next OID %v",
			s.Heap().Store().Len(), s.Heap().Store().NextOID())
	}
}

// TestRunClassifiesDamagedSlotCount: the same for a create whose slot count
// was damaged to 2^50, which used to reach make and panic the simulator.
func TestRunClassifiesDamagedSlotCount(t *testing.T) {
	tr := &trace.Trace{}
	tr.Append(trace.Event{Kind: trace.KindCreate, OID: 1, Size: 10})
	tr.Append(trace.Event{Kind: trace.KindCreate, OID: 2, Size: 10, Slots: 1 << 50})
	pol, _ := core.NewFixedRate(100)
	s, err := New(Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(tr)
	if !errors.Is(err, objstore.ErrSlotRange) || simerr.Classify(err) != simerr.ClassCorruptTrace {
		t.Fatalf("run over a 2^50-slot create = %v (class %s), want a corrupt-trace error wrapping ErrSlotRange", err, simerr.Classify(err))
	}
	if s.Heap().Store().Len() != 1 || s.Heap().Store().NextOID() != 2 {
		t.Errorf("refused create changed the store: %d objects, next OID %v",
			s.Heap().Store().Len(), s.Heap().Store().NextOID())
	}
}

func TestGenerateTracesSeeds(t *testing.T) {
	traces, err := GenerateTraces(oo7.SmallPrime(3), 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 {
		t.Fatalf("traces = %d", len(traces))
	}
	if traces[0].Len() == 0 || traces[1].Len() == 0 {
		t.Error("empty traces")
	}
	// Different seeds should give (at least slightly) different traces.
	same := traces[0].Len() == traces[1].Len()
	if same {
		for i := range traces[0].Events {
			if traces[0].Events[i].String() != traces[1].Events[i].String() {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}
