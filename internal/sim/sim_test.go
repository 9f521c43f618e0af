package sim

import (
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/objstore"
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

// TestStepAllocatesNothing: at steady state a replay step allocates nothing.
// Over 2 000 created and rooted objects, a pointer overwrite that flips
// between two targets and an access touch only tables and lists the heap
// already has: under SAIO-10 % (replay-oo7's policy, which runs no collection
// here) and under fixed(10), where every tenth overwrite also collects.
func TestStepAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		name   string
		policy func() (core.RatePolicy, error)
	}{
		{"saio-10", func() (core.RatePolicy, error) { return core.NewSAIO(core.SAIOConfig{Frac: 0.10}) }},
		{"fixed-10", func() (core.RatePolicy, error) { return core.NewFixedRate(10) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			pol, err := c.policy()
			if err != nil {
				t.Fatal(err)
			}
			s, err := New(Config{Policy: pol})
			if err != nil {
				t.Fatal(err)
			}
			step := func(e trace.Event) {
				if err := s.Step(&e); err != nil {
					t.Fatal(err)
				}
			}
			const n = 2000
			for oid := objstore.OID(1); oid <= n; oid++ {
				step(trace.Event{Kind: trace.KindCreate, OID: oid, Class: objstore.ClassAtomicPart, Size: 100, Slots: 2})
				step(trace.Event{Kind: trace.KindRoot, OID: oid, Size: 1})
			}
			targets := [2]objstore.OID{2, n}
			step(trace.Event{Kind: trace.KindOverwrite, OID: 1, New: targets[0], Init: true})
			i := 0
			if a := testing.AllocsPerRun(500, func() {
				step(trace.Event{Kind: trace.KindOverwrite, OID: 1, Old: targets[i%2], New: targets[(i+1)%2]})
				i++
			}); a != 0 {
				t.Errorf("overwrite: %v allocations per step, want 0", a)
			}
			if a := testing.AllocsPerRun(500, func() { step(trace.Event{Kind: trace.KindAccess, OID: n / 2}) }); a != 0 {
				t.Errorf("access: %v allocations per step, want 0", a)
			}
			t.Logf("%d collections", len(s.res.Collections))
		})
	}
}
