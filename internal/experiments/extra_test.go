package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"odbgc/internal/metrics"
)

func findSeries(t *testing.T, rep *Report, name string) *metrics.Series {
	t.Helper()
	for _, s := range rep.Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("%s: series %q missing (have %v)", rep.ID, name, seriesNames(rep))
	return nil
}

func seriesNames(rep *Report) []string {
	var out []string
	for _, s := range rep.Series {
		out = append(out, s.Name)
	}
	return out
}

func TestFig2Shape(t *testing.T) {
	rep, err := NewRunner(fastOpts).Fig2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Table.Rows) != 4 {
		t.Fatalf("fig2 rows = %d, want 4 phases", len(rep.Table.Rows))
	}
	// Traverse row: zero overwrites, zero garbage.
	trav := rep.Table.Rows[2]
	if trav[0] != "Traverse" || trav[2] != "0" || trav[3] != "0" {
		t.Errorf("traverse row = %v", trav)
	}
}

func TestFig6Shape(t *testing.T) {
	rep, err := NewRunner(fastOpts).Fig6(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series) != 6 {
		t.Fatalf("fig6 series = %d, want 6", len(rep.Series))
	}
	// FGS/HB's estimate tracks actual; CGS/CB's does not.
	mad := func(a, b *metrics.Series) float64 {
		n := a.Len()
		if b.Len() < n {
			n = b.Len()
		}
		var sum float64
		for i := 0; i < n; i++ {
			sum += math.Abs(a.Points[i].Y - b.Points[i].Y)
		}
		return sum / float64(n)
	}
	cgs := mad(findSeries(t, rep, "cgs-cb_actual_pct"), findSeries(t, rep, "cgs-cb_estimated_pct"))
	fgs := mad(findSeries(t, rep, "fgs-hb_actual_pct"), findSeries(t, rep, "fgs-hb_estimated_pct"))
	t.Logf("estimate-vs-actual MAD: cgs=%.2f fgs=%.2f (pct points)", cgs, fgs)
	if fgs >= cgs {
		t.Errorf("fig6: fgs tracking (%.2f) not better than cgs (%.2f)", fgs, cgs)
	}
}

func TestFig7Shapes(t *testing.T) {
	r := NewRunner(fastOpts)
	repA, err := r.Fig7a(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(repA.Series) != 6 {
		t.Fatalf("fig7a series = %d, want 6 (3 h values x actual/estimated)", len(repA.Series))
	}
	repB, err := r.Fig7b(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(repB.Series) != 3 {
		t.Fatalf("fig7b series = %d, want rate/yield/garbage", len(repB.Series))
	}
	if !repB.PlotSeparate {
		t.Error("fig7b series have mixed units; must plot separately")
	}
	rate := findSeries(t, repB, "interval_overwrites")
	if rate.Len() < 20 {
		t.Errorf("fig7b too few collections: %d", rate.Len())
	}
}

func TestFig8Shape(t *testing.T) {
	rep, err := NewRunner(fastOpts).RunContext(context.Background(), "fig8")
	if err != nil {
		t.Fatal(err)
	}
	for _, conn := range []string{"conn6", "conn9"} {
		saio := findSeries(t, rep, conn+"_saio_achieved")
		for _, p := range saio.Points {
			if math.Abs(p.Y-p.X) > p.X*0.25+1 {
				t.Errorf("fig8 %s saio: requested %.0f achieved %.2f", conn, p.X, p.Y)
			}
		}
		oracle := findSeries(t, rep, conn+"_saga_oracle_achieved")
		for _, p := range oracle.Points {
			if math.Abs(p.Y-p.X) > 2 {
				t.Errorf("fig8 %s saga/oracle: requested %.0f achieved %.2f", conn, p.X, p.Y)
			}
		}
	}
}

func TestAblationsShape(t *testing.T) {
	rep, err := NewRunner(fastOpts).Ablations(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]map[string]string{}
	for _, row := range rep.Table.Rows {
		if vals[row[0]] == nil {
			vals[row[0]] = map[string]string{}
		}
		vals[row[0]][row[1]] = row[3]
	}
	num := func(s string) float64 {
		var f float64
		if _, err := fmt.Sscanf(s, "%g", &f); err != nil {
			t.Fatalf("non-numeric cell %q", s)
		}
		return f
	}
	sel := vals["selection@fixed(300)"]
	if num(sel["updated-pointer"]) < num(sel["round-robin"]) {
		t.Errorf("updated-pointer (%s MB) reclaimed less than round-robin (%s MB)",
			sel["updated-pointer"], sel["round-robin"])
	}
	fix := vals["fixup-model"]
	if num(fix["physical-fixups"]) <= num(fix["logical-oids"]) {
		t.Errorf("physical fixups (%s) not costlier than logical OIDs (%s)",
			fix["physical-fixups"], fix["logical-oids"])
	}
	buf := vals["buffer-size@saio(10%)"]
	if len(buf) != 3 {
		t.Errorf("buffer ablation rows = %d", len(buf))
	}
}

func TestEstimatorsStudyShape(t *testing.T) {
	rep, err := NewRunner(fastOpts).RunContext(context.Background(), "estimators")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series) != 5 {
		t.Fatalf("estimator series = %d, want 5", len(rep.Series))
	}
	// The new design points must land in FGS/HB's class, far from CGS/CB.
	err10 := func(name string) float64 {
		s := findSeries(t, rep, "achieved_"+name)
		for _, p := range s.Points {
			if p.X == 10 {
				return math.Abs(p.Y - 10)
			}
		}
		t.Fatalf("no 10%% point for %s", name)
		return 0
	}
	if err10("fgs-window") > 2*err10("fgs-hb")+1 {
		t.Errorf("fgs-window error %.2f far from fgs-hb %.2f", err10("fgs-window"), err10("fgs-hb"))
	}
	if err10("cgs-cb") < err10("fgs-pp") {
		t.Errorf("cgs-cb (%.2f) beat fgs-pp (%.2f)", err10("cgs-cb"), err10("fgs-pp"))
	}
}

func TestControllersStudyShape(t *testing.T) {
	rep, err := NewRunner(fastOpts).RunContext(context.Background(), "controllers")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Series) != 4 {
		t.Fatalf("controller series = %d, want 4", len(rep.Series))
	}
	// With the oracle estimator both controllers should track well.
	for _, name := range []string{"achieved_saga_oracle", "achieved_pi_oracle"} {
		for _, p := range findSeries(t, rep, name).Points {
			if math.Abs(p.Y-p.X) > 3 {
				t.Errorf("%s: requested %.0f achieved %.2f", name, p.X, p.Y)
			}
		}
	}
}

func TestChurnStudyShape(t *testing.T) {
	rep, err := NewRunner(Options{Runs: 2}).RunContext(context.Background(), "churn")
	if err != nil {
		t.Fatal(err)
	}
	// SAIO holds its I/O targets on the foreign workload.
	for _, p := range findSeries(t, rep, "saio_achieved").Points {
		if math.Abs(p.Y-p.X) > p.X*0.2 {
			t.Errorf("churn saio: requested %.0f achieved %.2f", p.X, p.Y)
		}
	}
	// The time-weighted slope variant repairs FGS/HB at the low target.
	tw := findSeries(t, rep, "saga/fgs-hb+tw_achieved")
	for _, p := range tw.Points {
		if math.Abs(p.Y-p.X) > 2 {
			t.Errorf("churn fgs-hb+tw: requested %.0f achieved %.2f", p.X, p.Y)
		}
	}
}

func TestRunnerAllNamesResolve(t *testing.T) {
	r := NewRunner(fastOpts)
	for _, name := range Names() {
		if name == "fig1" || name == "fig4" || name == "fig5" || name == "fig8" ||
			name == "estimators" || name == "controllers" || name == "churn" || name == "ablations" {
			continue // covered by dedicated tests; too slow to repeat here
		}
		if _, err := r.Run(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := r.Run("figZ"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Errorf("unknown name error = %v", err)
	}
}

func TestReportPlotRendering(t *testing.T) {
	rep, err := NewRunner(fastOpts).Fig7b(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	chart := rep.Plot()
	if !strings.Contains(chart, "interval_overwrites") || !strings.Contains(chart, "garbage_pct") {
		t.Errorf("plot missing series charts")
	}
	empty := &Report{ID: "x"}
	if empty.Plot() != "" {
		t.Error("empty report produced a plot")
	}
}
