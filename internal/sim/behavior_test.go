package sim

import (
	"math"
	"testing"

	"odbgc/internal/core"
)

// TestSAGAOracleHoldsTargetThroughPhases asserts the paper's core claim
// (Figures 5/6): with exact garbage information, the controller holds the
// requested garbage level through both reorganizations, including the
// declustering one.
func TestSAGAOracleHoldsTargetThroughPhases(t *testing.T) {
	tr := smallTrace(t, 3, 2)
	pol, err := core.NewSAGA(core.SAGAConfig{Frac: 0.10}, core.OracleEstimator{})
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
	if res.GarbageFrac < 0.07 || res.GarbageFrac > 0.13 {
		t.Errorf("mean garbage %.4f, want ≈ 0.10", res.GarbageFrac)
	}
	// Post-preamble, the per-collection actual garbage fraction should sit
	// in a tight band around the target for the vast majority of
	// collections.
	out := 0
	n := 0
	for _, c := range res.Collections[res.EffectivePreamble:] {
		n++
		if c.GarbageFrac() < 0.05 || c.GarbageFrac() > 0.15 {
			out++
		}
	}
	if n == 0 {
		t.Fatal("no post-preamble collections")
	}
	if frac := float64(out) / float64(n); frac > 0.10 {
		t.Errorf("%.0f%% of collections outside the 5-15%% band (want <= 10%%)", frac*100)
	}
}

// TestEstimatorQualityOrdering asserts Figure 5's ordering at 10%:
// oracle tracks best, FGS/HB next, CGS/CB clearly worst.
func TestEstimatorQualityOrdering(t *testing.T) {
	tr := smallTrace(t, 3, 2)
	errFor := func(estName string) float64 {
		est, err := core.NewEstimator(estName, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		pol, err := core.NewSAGA(core.SAGAConfig{Frac: 0.10}, est)
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
		return math.Abs(res.GarbageFrac - 0.10)
	}
	oracle := errFor("oracle")
	fgs := errFor("fgs-hb")
	cgs := errFor("cgs-cb")
	t.Logf("abs error at 10%% request: oracle=%.4f fgs-hb=%.4f cgs-cb=%.4f", oracle, fgs, cgs)
	if !(oracle < fgs && fgs < cgs) {
		t.Errorf("estimator quality ordering violated: oracle=%.4f fgs=%.4f cgs=%.4f", oracle, fgs, cgs)
	}
	if oracle > 0.02 {
		t.Errorf("oracle error %.4f too large", oracle)
	}
}

// TestEstimateTracksActualFGSHB asserts Figure 6b: the FGS/HB estimate
// follows the actual garbage closely across phase changes.
func TestEstimateTracksActualFGSHB(t *testing.T) {
	tr := smallTrace(t, 3, 2)
	est, err := core.NewFGSHB(0.8)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := core.NewSAGA(core.SAGAConfig{Frac: 0.10}, est)
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
	var sumAbs float64
	n := 0
	for _, c := range res.Collections[res.EffectivePreamble:] {
		sumAbs += math.Abs(c.EstimatedFrac() - c.GarbageFrac())
		n++
	}
	if n == 0 {
		t.Fatal("no post-preamble collections")
	}
	mad := sumAbs / float64(n)
	t.Logf("FGS/HB mean |estimate - actual| = %.4f over %d collections", mad, n)
	if mad > 0.06 {
		t.Errorf("FGS/HB estimate does not track actual: MAD %.4f", mad)
	}
}

// TestSAGAIdlesDuringTraverse asserts §4.1.2: SAGA time is pointer
// overwrites, so no collections are scheduled during the read-only phase.
func TestSAGAIdlesDuringTraverse(t *testing.T) {
	tr := smallTrace(t, 3, 4)
	pol, err := core.NewSAGA(core.SAGAConfig{Frac: 0.10}, core.OracleEstimator{})
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
	var traverseAt, reorg2At int = -1, -1
	for _, m := range res.Phases {
		switch m.Label {
		case "Traverse":
			traverseAt = m.Collections
		case "Reorg2":
			reorg2At = m.Collections
		}
	}
	if traverseAt < 0 || reorg2At < 0 {
		t.Fatalf("phases missing: %+v", res.Phases)
	}
	if traverseAt != reorg2At {
		t.Errorf("SAGA ran %d collections during the read-only Traverse phase", reorg2At-traverseAt)
	}
}

// TestSAIOCollectsDuringTraverse: SAIO's clock is I/O, which does advance
// during Traverse, so it keeps collecting leftover garbage.
func TestSAIOCollectsDuringTraverse(t *testing.T) {
	tr := smallTrace(t, 3, 4)
	pol, err := core.NewSAIO(core.SAIOConfig{Frac: 0.30})
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
	var traverseAt, reorg2At int = -1, -1
	for _, m := range res.Phases {
		switch m.Label {
		case "Traverse":
			traverseAt = m.Collections
		case "Reorg2":
			reorg2At = m.Collections
		}
	}
	if reorg2At <= traverseAt {
		t.Errorf("SAIO ran no collections during Traverse (%d..%d)", traverseAt, reorg2At)
	}
}

// TestReorg2YieldDrops asserts Figure 7b's observation: the declustering
// reorganization produces less garbage per collection than Reorg1.
func TestReorg2YieldDrops(t *testing.T) {
	tr := smallTrace(t, 3, 2)
	est, err := core.NewFGSHB(0.8)
	if err != nil {
		t.Fatal(err)
	}
	pol, err := core.NewSAGA(core.SAGAConfig{Frac: 0.10}, est)
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
	var r1, r2 float64
	var n1, n2 int
	for _, c := range res.Collections {
		switch c.Phase {
		case "Reorg1":
			r1 += float64(c.Result.ReclaimedBytes)
			n1++
		case "Reorg2":
			r2 += float64(c.Result.ReclaimedBytes)
			n2++
		}
	}
	if n1 < 5 || n2 < 5 {
		t.Fatalf("too few collections per phase: %d/%d", n1, n2)
	}
	y1, y2 := r1/float64(n1), r2/float64(n2)
	t.Logf("mean yield: Reorg1 %.0f B (%d colls), Reorg2 %.0f B (%d colls)", y1, n1, y2, n2)
	if y2 >= y1 {
		t.Errorf("Reorg2 yield (%.0f) not below Reorg1 yield (%.0f)", y2, y1)
	}
}

// TestHistoryParameterTradeoff asserts Figure 7a: low h is responsive but
// noisy, high h is sluggish; h = 0.8 achieves the best (or near-best)
// overall accuracy.
func TestHistoryParameterTradeoff(t *testing.T) {
	tr := smallTrace(t, 3, 2)
	mad := func(history float64) float64 {
		est, err := core.NewFGSHB(history)
		if err != nil {
			t.Fatal(err)
		}
		pol, err := core.NewSAGA(core.SAGAConfig{Frac: 0.10}, est)
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
		var sum float64
		n := 0
		for _, c := range res.Collections[res.EffectivePreamble:] {
			sum += math.Abs(c.EstimatedFrac() - c.GarbageFrac())
			n++
		}
		if n == 0 {
			return math.Inf(1)
		}
		return sum / float64(n)
	}
	m50, m80, m95 := mad(0.50), mad(0.80), mad(0.95)
	t.Logf("estimate MAD: h=0.50 %.4f, h=0.80 %.4f, h=0.95 %.4f", m50, m80, m95)
	if m80 > m50 && m80 > m95 {
		t.Errorf("h=0.80 (%.4f) worse than both extremes (%.4f, %.4f)", m80, m50, m95)
	}
}
