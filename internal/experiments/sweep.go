package experiments

import (
	"context"
	"fmt"
	"slices"

	"odbgc/internal/core"
	"odbgc/internal/metrics"
	"odbgc/internal/sim"
	"odbgc/internal/trace"
	"odbgc/internal/workload"
)

// A sweep is a requested-against-achieved experiment written as data. Each
// of its lines runs one policy at each of the line's x values; each point is
// one runMany batch, one table row and one point on each of the line's
// series.
type sweep struct {
	// rep is the report's template: ID, title, axis names, plot layout and
	// notes.
	rep    Report
	header []string
	// conns runs every line at each connectivity on one trace, with the
	// connectivity as the row's first cell and in each series name. Without
	// it the lines run at Options.Connectivity on Options.Runs traces.
	conns []int
	// churn replaces the OO7 traces with workload.Churn ones.
	churn bool
	// scale maps a line's x to the table's and the series' X value (100
	// shows a requested fraction as a percentage).
	scale float64
	// cells formats a point's cells after the labels and X; series gives
	// one Y per name in the line's series.
	cells  func(l line, mr *sim.MultiResult) []string
	series func(l line, mr *sim.MultiResult) []float64
	lines  []line
}

// A line is one policy configuration swept over its x values.
type line struct {
	labels   []string // the row's leading cells
	series   []string
	policy   string // a core.NewPolicy name
	est      string // a core.NewEstimator name, for saga and pi
	slopeRef uint64
	xs       []float64 // the requested share, or for fixed the interval
}

// policyAt builds the line's policy at x.
func (l line) policyAt(x float64) (core.RatePolicy, error) {
	return core.NewPolicy(l.policy, core.PolicyParams{Frac: x, Interval: int(x), SlopeRef: l.slopeRef,
		Estimator: func() (core.Estimator, error) { return core.NewEstimator(l.est, 0) }})
}

var (
	saioFracs  = []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 0.50} // Figure 4
	sagaFracs  = []float64{0.03, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30}       // Figure 5
	studyFracs = []float64{0.05, 0.10, 0.20}
)

// estimatorLines is one SAGA line per estimator, labelled by its name.
func estimatorLines(xs []float64, ests ...string) []line {
	var out []line
	for _, e := range ests {
		out = append(out, line{labels: []string{e}, series: []string{"achieved_" + e}, policy: "saga", est: e, xs: xs})
	}
	return out
}

// sweeps is the grid: every experiment of the evaluation that is a sweep of
// requested against achieved share.
var sweeps = map[string]sweep{
	// Figure 1: fixed collection rates against total I/O (a) and total
	// garbage collected (b).
	"fig1": {
		rep: Report{ID: "fig1", Title: "Collection rate vs I/O operations (a) and total garbage collected (b)",
			XName: "overwrites_per_collection", YName: "total I/O operations / garbage bytes", PlotSeparate: true,
			Notes: []string{"shape: total I/O falls steeply as the interval grows; garbage collected falls too (time/space tradeoff)"}},
		header: []string{"rate (ow/coll)", "total I/O ops", "io min", "io max", "garbage collected B", "gc B min", "gc B max", "collections"},
		scale:  1, cells: fixedCells, series: fixedSeries,
		lines: []line{{series: []string{"total_io_ops", "garbage_collected_bytes"}, policy: "fixed",
			xs: []float64{50, 100, 150, 200, 300, 400, 600, 800}}},
	},
	// Figure 4: SAIO's achieved collector-I/O share, with min/max bars.
	"fig4": {
		rep: Report{ID: "fig4", Title: "Effectiveness of SAIO policy vs requested I/O percentage",
			XName: "requested_io_pct", YName: "achieved GC I/O %",
			Notes: []string{"shape: achieved tracks requested along the diagonal; slight upward drift and wider bars at the highest percentages (§4.1.1)"}},
		header: []string{"requested %", "achieved %", "min %", "max %", "collections"},
		scale:  100, cells: spreadCells, series: spreadSeries,
		lines: []line{{series: []string{"achieved_io_pct", "min_pct", "max_pct"}, policy: "saio", xs: saioFracs}},
	},
	// Figure 5: SAGA's achieved garbage share per estimator.
	"fig5": {
		rep: Report{ID: "fig5", Title: "Effectiveness of SAGA policy vs requested garbage percentage",
			XName: "requested_garbage_pct", YName: "achieved garbage %",
			Notes: []string{"shape: oracle hugs the diagonal; fgs-hb close with a systematic bump; cgs-cb far off with wide bars (§4.1.2)"}},
		header: []string{"estimator", "requested %", "achieved %", "min %", "max %", "collections"},
		scale:  100, cells: spreadCells, series: meanSeries,
		lines: estimatorLines(sagaFracs, "oracle", "cgs-cb", "fgs-hb"),
	},
	// Figure 8: Figures 4 and 5 again at connectivities 6 and 9, one run
	// per point as in the paper.
	"fig8": {
		rep: Report{ID: "fig8", Title: "Sensitivity of policy accuracy to database connectivity",
			XName: "requested_pct", YName: "achieved %",
			Notes: []string{"shape: results consistent with figures 4 and 5 (connectivity 3), supporting policy effectiveness across connectivities"}},
		header: []string{"connectivity", "policy", "requested %", "achieved %"},
		conns:  []int{6, 9}, scale: 100, cells: meanCells, series: meanSeries,
		lines: []line{
			{labels: []string{"saio"}, series: []string{"saio_achieved"}, policy: "saio", xs: saioFracs},
			{labels: []string{"saga/oracle"}, series: []string{"saga_oracle_achieved"}, policy: "saga", est: "oracle", xs: sagaFracs},
			{labels: []string{"saga/fgs-hb"}, series: []string{"saga_fgs-hb_achieved"}, policy: "saga", est: "fgs-hb", xs: sagaFracs},
		},
	},
	// Every garbage estimator under SAGA: the paper's two, its oracle, and
	// this reproduction's windowed and per-partition FGS.
	"estimators": {
		rep: Report{ID: "estimators", Title: "Garbage estimator study under the SAGA controller", XName: "requested_garbage_pct",
			Notes: []string{"fgs-window and fgs-pp are this reproduction's additional design-space points (§2.4 mentions more heuristics than the two detailed)"}},
		header: []string{"estimator", "requested %", "achieved %", "min %", "max %", "collections"},
		scale:  100, cells: spreadCells, series: meanSeries,
		lines: estimatorLines(studyFracs, "oracle", "cgs-cb", "fgs-hb", "fgs-window", "fgs-pp"),
	},
	// The paper's SAGA controller against a textbook PI controller.
	"controllers": {
		rep: Report{ID: "controllers", Title: "SAGA vs PI garbage-level controllers", XName: "requested_garbage_pct",
			Notes: []string{"SAGA's feed-forward slope term should track targets more tightly than the model-free PI controller, at comparable collection counts"}},
		header: []string{"controller", "estimator", "requested %", "achieved %", "max %", "collections"},
		scale:  100, series: meanSeries,
		cells: func(l line, mr *sim.MultiResult) []string {
			a := achieved(l, mr)
			return []string{pct(a.Mean), pct(a.Max), fmt.Sprintf("%.1f", mr.Collections.Mean)}
		},
		lines: []line{
			{labels: []string{"saga", "oracle"}, series: []string{"achieved_saga_oracle"}, policy: "saga", est: "oracle", xs: studyFracs},
			{labels: []string{"saga", "fgs-hb"}, series: []string{"achieved_saga_fgs-hb"}, policy: "saga", est: "fgs-hb", xs: studyFracs},
			{labels: []string{"pi", "oracle"}, series: []string{"achieved_pi_oracle"}, policy: "pi", est: "oracle", xs: studyFracs},
			{labels: []string{"pi", "fgs-hb"}, series: []string{"achieved_pi_fgs-hb"}, policy: "pi", est: "fgs-hb", xs: studyFracs},
		},
	},
	// §5's robustness question on the directory/file churn workload:
	// leaf-object garbage, hot/cold update skew and bursty phases.
	"churn": {
		rep: Report{ID: "churn", Title: "Policy accuracy on the non-OO7 churn workload", XName: "requested_pct", YName: "achieved %",
			Notes: []string{
				"churn garbage is leaf objects, so the naive connectivity-based prediction §2.1 faults on OO7 is nearly exact here",
				"finding: the paper's per-observation slope smoothing can trap SAGA/FGS-HB at low targets on this workload (estimator noise over Δt_min intervals flips the slope sign); the +tw variant weights slope samples by elapsed time and recovers",
				"shape: SAIO and SAGA/oracle hold their targets despite the different garbage anatomy and the burst/quiet phase structure"}},
		header: []string{"policy", "requested %", "achieved %", "min %", "max %", "collections"},
		churn:  true, scale: 100, cells: spreadCells, series: meanSeries,
		lines: []line{
			{labels: []string{"saio"}, series: []string{"saio_achieved"}, policy: "saio", xs: []float64{0.10, 0.20, 0.30}},
			{labels: []string{"saga/oracle"}, series: []string{"saga/oracle_achieved"}, policy: "saga", est: "oracle", xs: studyFracs},
			{labels: []string{"saga/fgs-hb"}, series: []string{"saga/fgs-hb_achieved"}, policy: "saga", est: "fgs-hb", xs: studyFracs},
			// time-weighted slope smoothing
			{labels: []string{"saga/fgs-hb+tw"}, series: []string{"saga/fgs-hb+tw_achieved"}, policy: "saga", est: "fgs-hb", slopeRef: 100, xs: studyFracs},
		},
	},
}

// achieved is the share a line's policy controls: collector I/O for SAIO,
// garbage for the others.
func achieved(l line, mr *sim.MultiResult) metrics.Aggregate {
	if l.policy == "saio" {
		return mr.GCIO
	}
	return mr.Garbage
}

func pct(v float64) string { return fmt.Sprintf("%.2f", v*100) }

func fixedCells(_ line, mr *sim.MultiResult) []string {
	var out []string
	for _, v := range []float64{mr.TotalIO.Mean, mr.TotalIO.Min, mr.TotalIO.Max, mr.Reclaimed.Mean, mr.Reclaimed.Min, mr.Reclaimed.Max} {
		out = append(out, fmt.Sprintf("%.0f", v))
	}
	return append(out, fmt.Sprintf("%.1f", mr.Collections.Mean))
}

func fixedSeries(_ line, mr *sim.MultiResult) []float64 {
	return []float64{mr.TotalIO.Mean, mr.Reclaimed.Mean}
}

func spreadCells(l line, mr *sim.MultiResult) []string {
	a := achieved(l, mr)
	return []string{pct(a.Mean), pct(a.Min), pct(a.Max), fmt.Sprintf("%.1f", mr.Collections.Mean)}
}

func spreadSeries(l line, mr *sim.MultiResult) []float64 {
	a := achieved(l, mr)
	return []float64{a.Mean * 100, a.Min * 100, a.Max * 100}
}

func meanCells(l line, mr *sim.MultiResult) []string { return []string{pct(achieved(l, mr).Mean)} }

func meanSeries(l line, mr *sim.MultiResult) []float64 {
	return []float64{achieved(l, mr).Mean * 100}
}

// sweep runs one grid row: connectivity × line × x.
func (r *Runner) sweep(ctx context.Context, s sweep) (*Report, error) {
	rep := s.rep
	rep.Notes = slices.Clone(s.rep.Notes)
	rep.Table = &metrics.Table{Header: slices.Clone(s.header)}
	conns := s.conns
	if conns == nil {
		conns = []int{r.opts.Connectivity}
	}
	for _, conn := range conns {
		traces, err := r.sweepTraces(ctx, s, conn)
		if err != nil {
			return nil, err
		}
		for _, l := range s.lines {
			labels, prefix := l.labels, ""
			if s.conns != nil {
				labels, prefix = append([]string{fmt.Sprint(conn)}, labels...), fmt.Sprintf("conn%d_", conn)
			}
			series := make([]*metrics.Series, len(l.series))
			for i, name := range l.series {
				series[i] = &metrics.Series{Name: prefix + name}
			}
			for _, x := range l.xs {
				mr, err := r.runMany(ctx, sim.RunnerConfig{
					Traces:              traces,
					MakePolicy:          func(int) (core.RatePolicy, error) { return l.policyAt(x) },
					PreambleCollections: r.opts.Preamble,
				})
				if err != nil {
					return nil, err
				}
				for i, y := range s.series(l, mr) {
					series[i].Add(x*s.scale, y)
				}
				row := append(slices.Clone(labels), fmt.Sprintf("%.0f", x*s.scale))
				rep.Table.AddRow(append(row, s.cells(l, mr)...)...)
			}
			rep.Series = append(rep.Series, series...)
		}
	}
	return &rep, nil
}

// sweepTraces returns the traces a sweep runs at conn.
func (r *Runner) sweepTraces(ctx context.Context, s sweep, conn int) ([]*trace.Trace, error) {
	opts := r.opts
	switch {
	case s.churn:
		traces := make([]*trace.Trace, opts.Runs)
		for i := range traces {
			tr, err := workload.Churn(workload.DefaultChurn(), opts.SeedBase+int64(i))
			if err != nil {
				return nil, err
			}
			traces[i] = tr
		}
		return traces, nil
	case s.conns != nil:
		return r.traces.get(ctx, conn, opts.SeedBase, 1)
	}
	return r.traces.get(ctx, conn, opts.SeedBase, opts.Runs)
}
