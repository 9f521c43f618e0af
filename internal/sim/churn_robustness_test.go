package sim

import (
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/workload"
)

// TestChurnFGSSlopeTrapDiagnostics documents the failure mode the
// time-weighted slope fixes: with the paper formula at a 5% target on the
// churn workload, the estimate stays accurate while the controller naps.
// Inspect with -v.
func TestChurnFGSSlopeTrapDiagnostics(t *testing.T) {
	tr, err := workload.Churn(workload.DefaultChurn(), 1)
	if err != nil {
		t.Fatal(err)
	}
	est, _ := core.NewFGSHB(0.8)
	pol, _ := core.NewSAGA(core.SAGAConfig{Frac: 0.05}, est)
	s, _ := New(Config{Policy: pol})
	res, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("collections=%d garbFrac=%.4f", len(res.Collections), res.GarbageFrac)
	for i, c := range res.Collections {
		if i%4 == 0 {
			t.Logf("#%3d %-8s ow=%6d int=%5d part=%3d po=%5d reclaimed=%7d act=%8d (%.3f) est=%9.0f next=%5d db=%d",
				c.Index, c.Phase, c.After.Overwrites, c.Interval, c.Result.Partition, c.Result.PartitionPO,
				c.Result.ReclaimedBytes, c.GarbageBytes, c.GarbageFrac(), c.Estimate, c.NextInterval, c.DatabaseBytes)
		}
	}
}

func TestChurnTimeWeightedSlopeRecovers(t *testing.T) {
	tr, err := workload.Churn(workload.DefaultChurn(), 1)
	if err != nil {
		t.Fatal(err)
	}
	run := func(slopeRef uint64) float64 {
		est, _ := core.NewFGSHB(0.8)
		pol, _ := core.NewSAGA(core.SAGAConfig{Frac: 0.05, SlopeRef: slopeRef}, est)
		s, _ := New(Config{Policy: pol})
		res, err := s.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res.GarbageFrac
	}
	paper := run(0)
	timeWeighted := run(100)
	t.Logf("churn @5%% target: paper slope %.4f, time-weighted slope %.4f", paper, timeWeighted)
	if timeWeighted > 0.15 {
		t.Errorf("time-weighted slope did not stabilize the controller: %.4f", timeWeighted)
	}
	if timeWeighted >= paper {
		t.Errorf("time-weighted (%.4f) no better than paper formula (%.4f)", timeWeighted, paper)
	}
}

func TestTimeWeightedSlopeNeutralOnOO7(t *testing.T) {
	tr := smallTrace(t, 3, 2)
	run := func(slopeRef uint64, estName string) float64 {
		est, _ := core.NewEstimator(estName, 0.8)
		pol, _ := core.NewSAGA(core.SAGAConfig{Frac: 0.10, SlopeRef: slopeRef}, est)
		s, _ := New(Config{Policy: pol})
		res, err := s.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		return res.GarbageFrac
	}
	for _, estName := range []string{"oracle", "fgs-hb"} {
		paper := run(0, estName)
		tw := run(100, estName)
		t.Logf("OO7 @10%% %s: paper %.4f, time-weighted %.4f", estName, paper, tw)
		// The variant must not make OO7 meaningfully worse.
		if absf(tw-0.10) > absf(paper-0.10)+0.02 {
			t.Errorf("%s: time-weighted slope hurt OO7 accuracy (%.4f vs %.4f)", estName, tw, paper)
		}
	}
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
