package sim

import (
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/oo7"
	"odbgc/internal/trace"
)

func smallTrace(t testing.TB, conn int, seed int64) *trace.Trace {
	t.Helper()
	tr, err := oo7.FullTrace(oo7.SmallPrime(conn), seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// runChecked replays tr like Simulator.Run, cross-validating all incremental
// bookkeeping against ground truth every `every` events (slow). The check
// compares against whole-graph reachability, which only means something at
// collection-safe points: mid-construction, a just-created object is
// legitimately unreachable.
func runChecked(t *testing.T, s *Simulator, tr *trace.Trace, every int) *Result {
	t.Helper()
	for i := range tr.Events {
		if err := s.Step(&tr.Events[i]); err != nil {
			t.Fatal(err)
		}
		if !s.loop.midBuild && (i+1)%every == 0 {
			if err := s.heap.Check(); err != nil {
				t.Fatalf("invariant check after event %d: %v", i, err)
			}
		}
	}
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEndToEndSAIO(t *testing.T) {
	tr := smallTrace(t, 3, 1)
	pol, err := core.NewSAIO(core.SAIOConfig{Frac: 0.10})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	res := runChecked(t, s, tr, 10000)
	t.Logf("collections=%d totalIO=%d gcioFrac=%.4f garbFrac=%.4f partitions=%d reclaimed=%d/%d",
		len(res.Collections), res.Final.TotalIO(), res.GCIOFrac, res.GarbageFrac,
		res.Partitions, res.TotalReclaimed, res.TotalGarbage)
	if !res.MeasurementStarted {
		t.Fatal("measurement window never started")
	}
	if len(res.Collections) < 10 {
		t.Fatalf("too few collections: %d", len(res.Collections))
	}
	// SAIO at 10% should land near 10%.
	if res.GCIOFrac < 0.05 || res.GCIOFrac > 0.20 {
		t.Errorf("SAIO 10%%: achieved %.4f, want roughly 0.10", res.GCIOFrac)
	}
}

func TestEndToEndSAGAOracle(t *testing.T) {
	tr := smallTrace(t, 3, 2)
	pol, err := core.NewSAGA(core.SAGAConfig{Frac: 0.10}, core.OracleEstimator{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	res := runChecked(t, s, tr, 10000)
	t.Logf("collections=%d gcioFrac=%.4f garbFrac=%.4f [%0.4f,%.4f] reclaimed=%d/%d",
		len(res.Collections), res.GCIOFrac, res.GarbageFrac,
		res.GarbageFracMin, res.GarbageFracMax, res.TotalReclaimed, res.TotalGarbage)
	if !res.MeasurementStarted {
		t.Fatal("measurement window never started")
	}
	if res.GarbageFrac < 0.05 || res.GarbageFrac > 0.16 {
		t.Errorf("SAGA oracle 10%%: achieved %.4f, want roughly 0.10", res.GarbageFrac)
	}
}

func TestEndToEndFixedRate(t *testing.T) {
	tr := smallTrace(t, 3, 3)
	var prevIO, prevReclaimed float64
	for i, interval := range []int{50, 800} {
		pol, err := core.NewFixedRate(interval)
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
		t.Logf("fixed(%d): collections=%d totalIO=%d reclaimed=%d",
			interval, len(res.Collections), res.Final.TotalIO(), res.TotalReclaimed)
		if i == 1 {
			// Figure 1's tradeoff: collecting less often costs less I/O and
			// reclaims less garbage.
			if float64(res.Final.TotalIO()) >= prevIO {
				t.Errorf("fixed(800) total I/O %d not below fixed(50) %v", res.Final.TotalIO(), prevIO)
			}
			if float64(res.TotalReclaimed) >= prevReclaimed {
				t.Errorf("fixed(800) reclaimed %d not below fixed(50) %v", res.TotalReclaimed, prevReclaimed)
			}
		}
		prevIO = float64(res.Final.TotalIO())
		prevReclaimed = float64(res.TotalReclaimed)
	}
}
