package sim

import (
	"bytes"
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/trace"
)

// TestRunStreamMatchesRun: streaming a trace through the binary codec must
// produce bit-identical results to the in-memory replay.
func TestRunStreamMatchesRun(t *testing.T) {
	tr := smallTrace(t, 3, 12)

	mkSim := func() *Simulator {
		pol, err := core.NewSAIO(core.SAIOConfig{Frac: 0.15})
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	inMem, err := mkSim().Run(tr)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, tr); err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := mkSim().RunStream(rd)
	if err != nil {
		t.Fatal(err)
	}

	if inMem.Final != streamed.Final {
		t.Errorf("I/O differs: %+v vs %+v", inMem.Final, streamed.Final)
	}
	if len(inMem.Collections) != len(streamed.Collections) {
		t.Fatalf("collections differ: %d vs %d", len(inMem.Collections), len(streamed.Collections))
	}
	for i := range inMem.Collections {
		a, b := inMem.Collections[i], streamed.Collections[i]
		if a.Result.Partition != b.Result.Partition || a.Result.ReclaimedBytes != b.Result.ReclaimedBytes || a.After != b.After {
			t.Fatalf("collection %d differs: %+v vs %+v", i, a, b)
		}
	}
	if inMem.GarbageFrac != streamed.GarbageFrac || inMem.GCIOFrac != streamed.GCIOFrac {
		t.Errorf("summaries differ: garb %v/%v gcio %v/%v",
			inMem.GarbageFrac, streamed.GarbageFrac, inMem.GCIOFrac, streamed.GCIOFrac)
	}
}

// TestStepAndFinishDirectly drives the simulator event by event.
func TestStepAndFinishDirectly(t *testing.T) {
	tr := smallTrace(t, 3, 12)
	pol, err := core.NewFixedRate(500)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Events {
		if err := s.Step(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Events == 0 || len(res.Collections) == 0 {
		t.Errorf("degenerate result: %d events, %d collections", res.Events, len(res.Collections))
	}
}

// TestRunStreamPropagatesDecodeErrors: a truncated stream must surface as
// an error, not silent completion.
func TestRunStreamPropagatesDecodeErrors(t *testing.T) {
	tr := smallTrace(t, 3, 12)
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, tr); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()/2]
	rd, err := trace.NewReader(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	pol, err := core.NewFixedRate(500)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunStream(rd); err == nil {
		t.Error("truncated stream completed without error")
	}
}

func TestPhaseSummaries(t *testing.T) {
	tr := smallTrace(t, 3, 12)
	pol, err := core.NewSAIO(core.SAIOConfig{Frac: 0.20})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PhaseSummaries) != 4 {
		t.Fatalf("phase summaries = %d, want 4", len(res.PhaseSummaries))
	}
	var events int
	var totalIO uint64
	for _, ps := range res.PhaseSummaries {
		events += ps.Events
		totalIO += ps.IO.TotalIO()
	}
	if events != res.Events {
		t.Errorf("phase events sum %d != run events %d", events, res.Events)
	}
	if totalIO != res.Final.TotalIO() {
		t.Errorf("phase I/O sum %d != run I/O %d", totalIO, res.Final.TotalIO())
	}
	// Traverse is read-only: no overwrite-driven garbage change, and for
	// SAIO it still collects (positive collections, reclaimed > 0 likely).
	trav := res.PhaseSummaries[2]
	if trav.Label != "Traverse" {
		t.Fatalf("third phase = %q", trav.Label)
	}
	if trav.Events == 0 {
		t.Error("Traverse summary has no events")
	}
	// Collections must sum to the total too.
	colls := 0
	for _, ps := range res.PhaseSummaries {
		colls += ps.Collections
	}
	if colls != len(res.Collections) {
		t.Errorf("phase collections sum %d != %d", colls, len(res.Collections))
	}
}
