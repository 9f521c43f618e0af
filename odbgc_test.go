package odbgc

import (
	"math"
	"slices"
	"testing"
)

func TestFacadeEndToEnd(t *testing.T) {
	tr, err := GenerateOO7Trace(OO7Options{Connectivity: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(tr); err != nil {
		t.Fatalf("generated trace invalid: %v", err)
	}
	stats := ComputeTraceStats(tr)
	if stats.Overwrites == 0 || stats.GarbageBytes == 0 {
		t.Fatalf("degenerate trace: %+v", stats)
	}

	policy, err := NewSAIO(SAIOConfig{Frac: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(tr, policy, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.GCIOFrac-0.15) > 0.05 {
		t.Errorf("SAIO 15%%: achieved %.4f", res.GCIOFrac)
	}
}

// TestFacadeLabels: a phase event's Label reads back as its name and compares
// equal to the facade's MakeLabel of that name.
func TestFacadeLabels(t *testing.T) {
	tr, err := GenerateOO7Trace(OO7Options{Connectivity: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range tr.Events {
		if e.Label == 0 {
			continue
		}
		var l Label = MakeLabel(e.Label.String())
		if l != e.Label {
			t.Errorf("MakeLabel(%q) = %d, the event's Label is %d", e.Label.String(), l, e.Label)
		}
		names = append(names, e.Label.String())
	}
	if want := ComputeTraceStats(tr).Phases; len(names) == 0 || !slices.Equal(names, want) {
		t.Errorf("phase labels %q, the trace's phases %q", names, want)
	}
}

func TestFacadeSAGAWithEstimators(t *testing.T) {
	tr, err := GenerateOO7Trace(OO7Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, estName := range []string{"oracle", "fgs-hb", "cgs-cb"} {
		est, err := NewEstimator(estName, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		policy, err := NewSAGA(SAGAConfig{Frac: 0.10}, est)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Simulate(tr, policy, SimOptions{})
		if err != nil {
			t.Fatalf("%s: %v", estName, err)
		}
		if len(res.Collections) == 0 {
			t.Errorf("%s: no collections", estName)
		}
	}
}

func TestFacadeSimulateMany(t *testing.T) {
	traces, err := GenerateTraces(SmallPrime(3), 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	mr, err := SimulateMany(traces, func(int) (RatePolicy, error) {
		return NewFixedRate(300)
	}, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(mr.Runs) != 2 || mr.Collections.N != 2 {
		t.Errorf("multi-run aggregation: %d runs, N=%d", len(mr.Runs), mr.Collections.N)
	}
}

func TestFacadeCustomParamsAndStorage(t *testing.T) {
	p := SmallPrime(3)
	p.NumCompPerModule = 20
	p.NumAssmLevels = 3
	tr, err := GenerateOO7Trace(OO7Options{Params: &p, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	policy, err := NewFixedRate(100)
	if err != nil {
		t.Fatal(err)
	}
	sc := DefaultStorage()
	sc.BufferPages = 24 // a buffer of two partitions
	sel, err := NewSelectionPolicy("round-robin", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(tr, policy, SimOptions{Storage: sc, Selection: sel})
	if err != nil {
		t.Fatal(err)
	}
	if res.SelectionName != "round-robin" {
		t.Errorf("selection = %q", res.SelectionName)
	}
}

func TestFacadeErrors(t *testing.T) {
	if _, err := Simulate(nil, nil, SimOptions{}); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := RunExperiment("figZ", ExperimentOptions{}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if len(ExperimentNames()) < 8 {
		t.Errorf("experiments registered: %v", ExperimentNames())
	}
}

func TestFacadeExperimentSmoke(t *testing.T) {
	rep, err := RunExperiment("table1", ExperimentOptions{Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "table1" || rep.Table == nil {
		t.Errorf("report = %+v", rep)
	}
}

func TestFacadeQueueWorkload(t *testing.T) {
	p := DefaultQueue()
	p.WindowEntries = 200
	p.Appends = 500
	tr, err := GenerateQueueTrace(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateTrace(tr); err != nil {
		t.Fatal(err)
	}
	sel, err := NewSelectionPolicy("hybrid", 1)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := NewSAGA(SAGAConfig{Frac: 0.10}, OracleEstimator{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(tr, pol, SimOptions{Selection: sel})
	if err != nil {
		t.Fatal(err)
	}
	if res.SelectionName != "hybrid" {
		t.Errorf("selection = %q", res.SelectionName)
	}
	if len(res.Collections) == 0 {
		t.Error("no collections on queue workload")
	}
}

func TestFacadeChurnAndPI(t *testing.T) {
	p := DefaultChurn()
	p.Dirs = 40
	p.SteadyOps = 800
	p.BurstOps = 400
	p.QuietReads = 500
	tr, err := GenerateChurnTrace(p, 2)
	if err != nil {
		t.Fatal(err)
	}
	est, err := NewFGSWindow(6)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := NewPIController(PIConfig{Frac: 0.10}, est)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(tr, pol, SimOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Collections) == 0 {
		t.Error("PI controller never collected")
	}
	if len(res.PhaseSummaries) != 5 {
		t.Errorf("phase summaries = %d, want 5", len(res.PhaseSummaries))
	}
}
