package experiments

import (
	"context"
	"strings"
	"testing"

	"odbgc/internal/metrics"
)

// fastOpts shrinks run counts so the shape tests stay quick; shapes are
// asserted, absolute values logged for EXPERIMENTS.md.
var fastOpts = Options{Runs: 3}

func TestTable1(t *testing.T) {
	rep, err := NewRunner(fastOpts).Table1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	if !strings.Contains(rep.Table.String(), "NumAtomicPerComp") {
		t.Error("table1 missing parameter rows")
	}
}

func TestFig1Shape(t *testing.T) {
	rep, err := NewRunner(fastOpts).RunContext(context.Background(), "fig1")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	io := rep.Series[0]
	garb := rep.Series[1]
	// Figure 1's time/space tradeoff: both curves decrease from rate 50 to
	// rate 800 (not necessarily strictly monotone at every step).
	first, last := io.Points[0].Y, io.Points[len(io.Points)-1].Y
	if last >= first {
		t.Errorf("fig1a: total I/O at 800 (%.0f) not below I/O at 50 (%.0f)", last, first)
	}
	if first < 1.5*last {
		t.Errorf("fig1a: expected steep I/O cost at small intervals (%.0f vs %.0f)", first, last)
	}
	gFirst, gLast := garb.Points[0].Y, garb.Points[len(garb.Points)-1].Y
	if gLast >= gFirst {
		t.Errorf("fig1b: garbage collected at 800 (%.0f) not below at 50 (%.0f)", gLast, gFirst)
	}
}

func TestFig4Shape(t *testing.T) {
	rep, err := NewRunner(fastOpts).RunContext(context.Background(), "fig4")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	achieved := rep.Series[0]
	for _, p := range achieved.Points {
		req, got := p.X, p.Y
		if got < req*0.6 || got > req*1.5 {
			t.Errorf("fig4: requested %.0f%% achieved %.2f%%, outside [0.6x,1.5x]", req, got)
		}
	}
	// Achieved percentage must increase with the request.
	if achieved.Points[len(achieved.Points)-1].Y <= achieved.Points[0].Y {
		t.Error("fig4: achieved I/O pct not increasing with requested pct")
	}
}

func TestFig5Shape(t *testing.T) {
	rep, err := NewRunner(fastOpts).RunContext(context.Background(), "fig5")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	var oracle, cgs, fgs *metrics.Series
	for _, s := range rep.Series {
		switch s.Name {
		case "achieved_oracle":
			oracle = s
		case "achieved_cgs-cb":
			cgs = s
		case "achieved_fgs-hb":
			fgs = s
		}
	}
	if oracle == nil || cgs == nil || fgs == nil {
		t.Fatal("fig5 missing estimator series")
	}
	var oracleErr, cgsErr, fgsErr float64
	for i := range oracle.Points {
		req := oracle.Points[i].X
		oracleErr += abs(oracle.Points[i].Y - req)
		cgsErr += abs(cgs.Points[i].Y - req)
		fgsErr += abs(fgs.Points[i].Y - req)
	}
	t.Logf("mean abs error: oracle=%.2f fgs=%.2f cgs=%.2f (pct points)",
		oracleErr/float64(len(oracle.Points)), fgsErr/float64(len(oracle.Points)), cgsErr/float64(len(oracle.Points)))
	// Paper ordering: oracle best, FGS/HB next, CGS/CB clearly worst.
	if !(oracleErr < fgsErr) {
		t.Errorf("fig5: oracle error %.2f not below fgs error %.2f", oracleErr, fgsErr)
	}
	if !(fgsErr < cgsErr) {
		t.Errorf("fig5: fgs error %.2f not below cgs error %.2f", fgsErr, cgsErr)
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
