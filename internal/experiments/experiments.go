// Package experiments regenerates every table and figure of the paper's
// evaluation: the same rows and series, produced by the reproduction's
// simulator. Each experiment returns a Report with a printable table and/or
// CSV-able time series plus notes on how to read it against the paper.
package experiments

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"

	"odbgc/internal/core"
	"odbgc/internal/fault"
	"odbgc/internal/metrics"
	"odbgc/internal/oo7"
	"odbgc/internal/plot"
	"odbgc/internal/sim"
	"odbgc/internal/simerr"
	"odbgc/internal/trace"
)

// Options control experiment scale. The zero value reproduces the paper's
// methodology (connectivity 3, 10 runs, preamble 10).
type Options struct {
	// Connectivity is NumConnPerAtomic for the main experiments (default 3).
	Connectivity int
	// Runs is the number of seeded runs per data point (default 10).
	Runs int
	// SeedBase is the first seed (default 1).
	SeedBase int64
	// Preamble is the cold-start exclusion in collections (default 10).
	Preamble int
	// FaultProfile runs every batch under fault injection (see
	// internal/fault); the zero value injects nothing.
	FaultProfile fault.Profile
	// FaultSeed is the base seed for fault schedules; run i of a batch uses
	// FaultSeed+i.
	FaultSeed int64
	// EventsDir writes each simulated run's structured JSONL event log under
	// EventsDir/<experiment>-batchNNN/run-NNN.jsonl (see internal/obs).
	EventsDir string
	// Parallel bounds per-batch run concurrency (and trace-generation
	// concurrency); zero means runtime.GOMAXPROCS(0). See
	// sim.RunnerConfig.Parallel.
	Parallel int
}

func (o Options) withDefaults() Options {
	if o.Connectivity == 0 {
		o.Connectivity = 3
	}
	if o.Runs == 0 {
		o.Runs = 10
	}
	if o.SeedBase == 0 {
		o.SeedBase = 1
	}
	if o.Preamble == 0 {
		o.Preamble = 10
	}
	return o
}

// Report is one regenerated table or figure.
type Report struct {
	ID     string
	Title  string
	Table  *metrics.Table
	Series []*metrics.Series
	// XName labels the shared X axis of Series (for CSV output and plots).
	XName string
	// YName labels the Y axis of plots.
	YName string
	// PlotSeparate plots each series on its own chart (used when the
	// series have incomparable units, e.g. Figure 7b's rate vs yield vs
	// percentage).
	PlotSeparate bool
	Notes        []string
}

// Plot renders the report's series as ASCII charts, reproducing the
// paper's figure in a terminal. Reports without series return "".
func (r *Report) Plot() string {
	if len(r.Series) == 0 {
		return ""
	}
	base := plot.Options{
		Title:  fmt.Sprintf("%s: %s", r.ID, r.Title),
		Width:  72,
		Height: 20,
		XLabel: r.XName,
		YLabel: r.YName,
	}
	if !r.PlotSeparate {
		return plot.Render(base, r.Series...)
	}
	var b strings.Builder
	for _, s := range r.Series {
		opts := base
		opts.Title = fmt.Sprintf("%s: %s", r.ID, s.Name)
		opts.Height = 12
		b.WriteString(plot.Render(opts, s))
		b.WriteByte('\n')
	}
	return b.String()
}

// String renders the report as text.
func (r *Report) String() string {
	s := fmt.Sprintf("== %s: %s ==\n", r.ID, r.Title)
	if r.Table != nil {
		s += r.Table.String()
	}
	if len(r.Series) > 0 {
		s += metrics.CSV(r.XName, r.Series...)
	}
	for _, n := range r.Notes {
		s += "note: " + n + "\n"
	}
	return s
}

// traceCache shares generated traces across experiments with the same
// parameters, since trace generation dominates sweep cost. It generates
// under the caller's context and the runner's concurrency bound.
type traceCache struct {
	r *Runner
	m map[string][]*trace.Trace
}

func (tc *traceCache) get(ctx context.Context, conn int, base int64, n int) ([]*trace.Trace, error) {
	key := fmt.Sprintf("%d/%d/%d", conn, base, n)
	if ts, ok := tc.m[key]; ok {
		return ts, nil
	}
	ts, err := sim.GenerateTracesContext(ctx, oo7.SmallPrime(conn), base, n, tc.r.opts.Parallel)
	if err != nil {
		return nil, err
	}
	tc.m[key] = ts
	return ts, nil
}

// Runner executes experiments, sharing trace generation between them.
// Cancellation arrives as the explicit ctx argument every experiment method
// takes as its first parameter; the runner itself never holds a context.
type Runner struct {
	opts   Options
	traces *traceCache

	// curExp and batch key the per-batch event-log subdirectories while an
	// experiment runs.
	curExp string
	batch  int
}

// runMany is sim.RunManyContext with the caller's context and the runner's
// fault-injection and concurrency options applied. Each batch within an
// experiment gets its own event-log subdirectory, numbered in execution
// order.
func (r *Runner) runMany(ctx context.Context, cfg sim.RunnerConfig) (*sim.MultiResult, error) {
	cfg.FaultProfile = r.opts.FaultProfile
	cfg.FaultSeed = r.opts.FaultSeed
	cfg.Parallel = r.opts.Parallel
	if r.opts.EventsDir != "" {
		r.batch++
		cfg.EventsDir = filepath.Join(r.opts.EventsDir,
			fmt.Sprintf("%s-batch%03d", r.curExp, r.batch))
	}
	return sim.RunManyContext(ctx, cfg)
}

// NewRunner returns a Runner with the given options.
func NewRunner(opts Options) *Runner {
	r := &Runner{opts: opts.withDefaults()}
	r.traces = &traceCache{r: r, m: make(map[string][]*trace.Trace)}
	return r
}

// Names lists the experiment identifiers in paper order, followed by the
// reproduction's own ablation study.
func Names() []string {
	return []string{"table1", "fig1", "fig2", "fig4", "fig5", "fig6", "fig7a", "fig7b", "fig8",
		"ablations", "estimators", "controllers", "churn"}
}

// Run executes one experiment by name.
func (r *Runner) Run(name string) (*Report, error) {
	return r.RunContext(context.Background(), name)
}

// RunContext executes one experiment by name under ctx: cancelling ctx
// aborts the experiment's batches (classified simerr.ErrCanceled).
func (r *Runner) RunContext(ctx context.Context, name string) (*Report, error) {
	r.curExp, r.batch = name, 0
	switch name {
	case "table1":
		return r.Table1(ctx)
	case "fig1":
		return r.Fig1(ctx)
	case "fig2":
		return r.Fig2(ctx)
	case "fig4":
		return r.Fig4(ctx)
	case "fig5":
		return r.Fig5(ctx)
	case "fig6":
		return r.Fig6(ctx)
	case "fig7a":
		return r.Fig7a(ctx)
	case "fig7b":
		return r.Fig7b(ctx)
	case "fig8":
		return r.Fig8(ctx)
	case "ablations":
		return r.Ablations(ctx)
	case "estimators":
		return r.Estimators(ctx)
	case "controllers":
		return r.Controllers(ctx)
	case "churn":
		return r.Churn(ctx)
	default:
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
}

// All runs every experiment in paper order.
func (r *Runner) All() ([]*Report, error) {
	return r.AllContext(context.Background())
}

// AllContext runs every experiment in paper order under ctx, stopping at
// the first failure or cancellation; the reports completed so far are
// returned alongside the error.
func (r *Runner) AllContext(ctx context.Context) ([]*Report, error) {
	var out []*Report
	for _, name := range Names() {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("experiments: %s: %w", name, simerr.FromContext(err))
		}
		rep, err := r.RunContext(ctx, name)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", name, err)
		}
		out = append(out, rep)
	}
	return out, nil
}

// Table1 reports the OO7 Small' parameters and the derived database sizes
// across connectivities, against the paper's 3.7–7.9 MB band.
func (r *Runner) Table1(ctx context.Context) (*Report, error) {
	rep := &Report{
		ID:    "table1",
		Title: "OO7 benchmark database parameters and derived structure",
	}
	t := &metrics.Table{Header: []string{"parameter", "Small'", "Small"}}
	sp, s := oo7.SmallPrime(3), oo7.Small(3)
	rows := []struct {
		name     string
		sp, smol int
	}{
		{"NumAtomicPerComp", sp.NumAtomicPerComp, s.NumAtomicPerComp},
		{"NumConnPerAtomic", sp.NumConnPerAtomic, s.NumConnPerAtomic},
		{"DocumentSize (bytes)", sp.DocumentBytes, s.DocumentBytes},
		{"ManualSize (kbytes)", sp.ManualBytes / 1024, s.ManualBytes / 1024},
		{"NumCompPerModule", sp.NumCompPerModule, s.NumCompPerModule},
		{"NumAssmPerAssm", sp.NumAssmPerAssm, s.NumAssmPerAssm},
		{"NumAssmLevels", sp.NumAssmLevels, s.NumAssmLevels},
		{"NumCompPerAssm", sp.NumCompPerAssm, s.NumCompPerAssm},
		{"NumModules", sp.NumModules, s.NumModules},
	}
	for _, row := range rows {
		t.AddRow(row.name, fmt.Sprint(row.sp), fmt.Sprint(row.smol))
	}
	rep.Table = t

	st := &metrics.Table{Header: []string{
		"connectivity", "objects", "bytes", "MB", "avg object B", "atomic in-degree",
	}}
	for _, conn := range []int{3, 6, 9} {
		g, err := oo7.NewGenerator(oo7.SmallPrime(conn), r.opts.SeedBase)
		if err != nil {
			return nil, err
		}
		if err := g.GenDB(); err != nil {
			return nil, err
		}
		info := g.Info()
		st.AddRow(fmt.Sprint(conn), fmt.Sprint(info.Objects), fmt.Sprint(info.Bytes),
			fmt.Sprintf("%.2f", float64(info.Bytes)/(1<<20)),
			fmt.Sprintf("%.1f", info.AvgObjectSize),
			fmt.Sprintf("%.2f", info.AvgAtomicInDegree))
	}
	rep.Notes = append(rep.Notes,
		"paper: Small' database ranges ~3.7-7.9 MB over connectivities 3/6/9",
		"derived structure table follows the parameter table:\n"+st.String())
	return rep, nil
}

// Fig2 reports the application phase sequence and per-phase event counts.
func (r *Runner) Fig2(ctx context.Context) (*Report, error) {
	opts := r.opts
	tr, err := oo7.FullTrace(oo7.SmallPrime(opts.Connectivity), opts.SeedBase)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "fig2", Title: "Phases of the OO7 test application"}
	t := &metrics.Table{Header: []string{"phase", "events", "overwrites", "garbage bytes"}}
	type agg struct{ events, ow, garb int }
	var cur string
	perPhase := map[string]*agg{}
	var order []string
	for i := range tr.Events {
		e := &tr.Events[i]
		if e.Kind == trace.KindPhase {
			cur = e.Label
			perPhase[cur] = &agg{}
			order = append(order, cur)
			continue
		}
		a := perPhase[cur]
		if a == nil {
			continue
		}
		a.events++
		if e.Kind == trace.KindOverwrite && !e.Init {
			a.ow++
		}
		a.garb += e.DeadBytes()
	}
	for _, ph := range order {
		a := perPhase[ph]
		t.AddRow(ph, fmt.Sprint(a.events), fmt.Sprint(a.ow), fmt.Sprint(a.garb))
	}
	rep.Table = t
	rep.Notes = append(rep.Notes,
		"GenDB -> Reorg1 -> Traverse -> Reorg2; Traverse is read-only (no overwrites, no garbage)")
	return rep, nil
}

// Fig1 sweeps fixed collection rates and reports total I/O operations
// (Figure 1a) and total garbage collected (Figure 1b).
func (r *Runner) Fig1(ctx context.Context) (*Report, error) {
	opts := r.opts
	traces, err := r.traces.get(ctx, opts.Connectivity, opts.SeedBase, opts.Runs)
	if err != nil {
		return nil, err
	}
	rates := []int{50, 100, 150, 200, 300, 400, 600, 800}
	rep := &Report{
		ID:           "fig1",
		Title:        "Collection rate vs I/O operations (a) and total garbage collected (b)",
		XName:        "overwrites_per_collection",
		YName:        "total I/O operations / garbage bytes",
		PlotSeparate: true,
	}
	ioSeries := &metrics.Series{Name: "total_io_ops"}
	garbSeries := &metrics.Series{Name: "garbage_collected_bytes"}
	t := &metrics.Table{Header: []string{
		"rate (ow/coll)", "total I/O ops", "io min", "io max", "garbage collected B", "gc B min", "gc B max", "collections",
	}}
	for _, rate := range rates {
		rate := rate
		mr, err := r.runMany(ctx, sim.RunnerConfig{
			Traces: traces,
			MakePolicy: func(int) (core.RatePolicy, error) {
				return core.NewFixedRate(rate)
			},
			PreambleCollections: opts.Preamble,
		})
		if err != nil {
			return nil, err
		}
		ioSeries.Add(float64(rate), mr.TotalIO.Mean)
		garbSeries.Add(float64(rate), mr.Reclaimed.Mean)
		t.AddRow(fmt.Sprint(rate),
			fmt.Sprintf("%.0f", mr.TotalIO.Mean),
			fmt.Sprintf("%.0f", mr.TotalIO.Min),
			fmt.Sprintf("%.0f", mr.TotalIO.Max),
			fmt.Sprintf("%.0f", mr.Reclaimed.Mean),
			fmt.Sprintf("%.0f", mr.Reclaimed.Min),
			fmt.Sprintf("%.0f", mr.Reclaimed.Max),
			fmt.Sprintf("%.1f", mr.Collections.Mean))
	}
	rep.Table = t
	rep.Series = []*metrics.Series{ioSeries, garbSeries}
	rep.Notes = append(rep.Notes,
		"shape: total I/O falls steeply as the interval grows; garbage collected falls too (time/space tradeoff)")
	return rep, nil
}

// saioFracs is the Figure 4 sweep of requested collector-I/O percentages.
var saioFracs = []float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 0.50}

// Fig4 sweeps SAIO_Frac and reports achieved collector-I/O percentage with
// min/max bars over the seeded runs.
func (r *Runner) Fig4(ctx context.Context) (*Report, error) {
	opts := r.opts
	traces, err := r.traces.get(ctx, opts.Connectivity, opts.SeedBase, opts.Runs)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "fig4",
		Title: "Effectiveness of SAIO policy vs requested I/O percentage",
		XName: "requested_io_pct",
		YName: "achieved GC I/O %",
	}
	rep.Series = []*metrics.Series{
		{Name: "achieved_io_pct"}, {Name: "min_pct"}, {Name: "max_pct"},
	}
	t := &metrics.Table{Header: []string{"requested %", "achieved %", "min %", "max %", "collections"}}
	for _, frac := range saioFracs {
		frac := frac
		mr, err := r.runMany(ctx, sim.RunnerConfig{
			Traces: traces,
			MakePolicy: func(int) (core.RatePolicy, error) {
				return core.NewSAIO(core.SAIOConfig{Frac: frac})
			},
			PreambleCollections: opts.Preamble,
		})
		if err != nil {
			return nil, err
		}
		rep.Series[0].Add(frac*100, mr.GCIO.Mean*100)
		rep.Series[1].Add(frac*100, mr.GCIO.Min*100)
		rep.Series[2].Add(frac*100, mr.GCIO.Max*100)
		t.AddRow(fmt.Sprintf("%.0f", frac*100),
			fmt.Sprintf("%.2f", mr.GCIO.Mean*100),
			fmt.Sprintf("%.2f", mr.GCIO.Min*100),
			fmt.Sprintf("%.2f", mr.GCIO.Max*100),
			fmt.Sprintf("%.1f", mr.Collections.Mean))
	}
	rep.Table = t
	rep.Notes = append(rep.Notes,
		"shape: achieved tracks requested along the diagonal; slight upward drift and wider bars at the highest percentages (§4.1.1)")
	return rep, nil
}

// sagaFracs is the Figure 5 sweep of requested garbage percentages.
var sagaFracs = []float64{0.03, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30}

// sagaEstimators lists the Figure 5 estimator variants.
var sagaEstimators = []string{"oracle", "cgs-cb", "fgs-hb"}

// Fig5 sweeps SAGA_Frac for each garbage estimator and reports achieved
// garbage percentage with min/max bars.
func (r *Runner) Fig5(ctx context.Context) (*Report, error) {
	opts := r.opts
	traces, err := r.traces.get(ctx, opts.Connectivity, opts.SeedBase, opts.Runs)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "fig5",
		Title: "Effectiveness of SAGA policy vs requested garbage percentage",
		XName: "requested_garbage_pct",
		YName: "achieved garbage %",
	}
	t := &metrics.Table{Header: []string{"estimator", "requested %", "achieved %", "min %", "max %", "collections"}}
	for _, estName := range sagaEstimators {
		estName := estName
		series := &metrics.Series{Name: "achieved_" + estName}
		for _, frac := range sagaFracs {
			frac := frac
			mr, err := r.runMany(ctx, sim.RunnerConfig{
				Traces: traces,
				MakePolicy: func(int) (core.RatePolicy, error) {
					est, err := core.NewEstimator(estName, 0.8)
					if err != nil {
						return nil, err
					}
					return core.NewSAGA(core.SAGAConfig{Frac: frac}, est)
				},
				PreambleCollections: opts.Preamble,
			})
			if err != nil {
				return nil, err
			}
			series.Add(frac*100, mr.Garbage.Mean*100)
			t.AddRow(estName, fmt.Sprintf("%.0f", frac*100),
				fmt.Sprintf("%.2f", mr.Garbage.Mean*100),
				fmt.Sprintf("%.2f", mr.Garbage.Min*100),
				fmt.Sprintf("%.2f", mr.Garbage.Max*100),
				fmt.Sprintf("%.1f", mr.Collections.Mean))
		}
		rep.Series = append(rep.Series, series)
	}
	rep.Table = t
	rep.Notes = append(rep.Notes,
		"shape: oracle hugs the diagonal; fgs-hb close with a systematic bump; cgs-cb far off with wide bars (§4.1.2)")
	return rep, nil
}

// Fig6 produces the time-varying target/actual/estimated garbage series for
// the CGS/CB (a) and FGS/HB (b) heuristics at a 10% request.
func (r *Runner) Fig6(ctx context.Context) (*Report, error) {
	opts := r.opts
	traces, err := r.traces.get(ctx, opts.Connectivity, opts.SeedBase, 1)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "fig6",
		Title: "Time-varying garbage estimation, CGS/CB (a) and FGS/HB (b), 10% request",
		XName: "collection",
		YName: "garbage % of database",
	}
	for _, estName := range []string{"cgs-cb", "fgs-hb"} {
		est, err := core.NewEstimator(estName, 0.8)
		if err != nil {
			return nil, err
		}
		pol, err := core.NewSAGA(core.SAGAConfig{Frac: 0.10}, est)
		if err != nil {
			return nil, err
		}
		s, err := sim.New(sim.Config{Policy: pol, PreambleCollections: opts.Preamble})
		if err != nil {
			return nil, err
		}
		res, err := s.RunContext(ctx, traces[0])
		if err != nil {
			return nil, err
		}
		target := &metrics.Series{Name: estName + "_target_pct"}
		actual := &metrics.Series{Name: estName + "_actual_pct"}
		estd := &metrics.Series{Name: estName + "_estimated_pct"}
		for _, c := range res.Collections {
			x := float64(c.Index)
			target.Add(x, c.TargetGarbageFrac*100)
			actual.Add(x, c.ActualGarbageFrac*100)
			estd.Add(x, c.EstimatedGarbageFrac*100)
		}
		rep.Series = append(rep.Series, target, actual, estd)
		rep.Notes = append(rep.Notes, fmt.Sprintf("%s: %d collections, mean sampled garbage %.2f%%",
			estName, len(res.Collections), res.GarbageFrac*100))
	}
	rep.Notes = append(rep.Notes,
		"shape: cgs-cb estimate swings wildly and overestimates; fgs-hb tracks actual closely through phase changes")
	return rep, nil
}

// Fig7a studies the FGS/HB history parameter h ∈ {0.50, 0.80, 0.95} at a
// 10% request, reporting estimated and actual garbage per collection.
func (r *Runner) Fig7a(ctx context.Context) (*Report, error) {
	opts := r.opts
	traces, err := r.traces.get(ctx, opts.Connectivity, opts.SeedBase, 1)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "fig7a",
		Title: "History parameter study of the FGS/HB heuristic (10% request)",
		XName: "collection",
		YName: "garbage % of database",
	}
	for _, h := range []float64{0.50, 0.80, 0.95} {
		est, err := core.NewFGSHB(h)
		if err != nil {
			return nil, err
		}
		pol, err := core.NewSAGA(core.SAGAConfig{Frac: 0.10}, est)
		if err != nil {
			return nil, err
		}
		s, err := sim.New(sim.Config{Policy: pol, PreambleCollections: opts.Preamble})
		if err != nil {
			return nil, err
		}
		res, err := s.RunContext(ctx, traces[0])
		if err != nil {
			return nil, err
		}
		actual := &metrics.Series{Name: fmt.Sprintf("h%.0f_actual_pct", h*100)}
		estd := &metrics.Series{Name: fmt.Sprintf("h%.0f_estimated_pct", h*100)}
		for _, c := range res.Collections {
			actual.Add(float64(c.Index), c.ActualGarbageFrac*100)
			estd.Add(float64(c.Index), c.EstimatedGarbageFrac*100)
		}
		rep.Series = append(rep.Series, actual, estd)
		rep.Notes = append(rep.Notes, fmt.Sprintf("h=%.2f: %d collections, mean sampled garbage %.2f%%",
			h, len(res.Collections), res.GarbageFrac*100))
	}
	rep.Notes = append(rep.Notes,
		"shape: h=0.95 adapts slowly (large swings at phase changes); h=0.50 responds fast but oscillates; h=0.80 is the practical compromise")
	return rep, nil
}

// Fig7b reports collection rate, collection yield and garbage percentage
// over time for FGS/HB with h = 0.8 at a 10% request.
func (r *Runner) Fig7b(ctx context.Context) (*Report, error) {
	opts := r.opts
	traces, err := r.traces.get(ctx, opts.Connectivity, opts.SeedBase, 1)
	if err != nil {
		return nil, err
	}
	est, err := core.NewFGSHB(0.8)
	if err != nil {
		return nil, err
	}
	pol, err := core.NewSAGA(core.SAGAConfig{Frac: 0.10}, est)
	if err != nil {
		return nil, err
	}
	s, err := sim.New(sim.Config{Policy: pol, PreambleCollections: opts.Preamble})
	if err != nil {
		return nil, err
	}
	res, err := s.RunContext(ctx, traces[0])
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:           "fig7b",
		Title:        "Collection rate, yield and garbage percentage over time (FGS/HB, h=0.8, 10%)",
		XName:        "collection",
		YName:        "per-series units",
		PlotSeparate: true,
	}
	rate := &metrics.Series{Name: "interval_overwrites"}
	yield := &metrics.Series{Name: "yield_bytes"}
	garb := &metrics.Series{Name: "garbage_pct"}
	for _, c := range res.Collections {
		x := float64(c.Index)
		rate.Add(x, float64(c.Interval))
		yield.Add(x, float64(c.ReclaimedBytes))
		garb.Add(x, c.ActualGarbageFrac*100)
	}
	rep.Series = []*metrics.Series{rate, yield, garb}
	for _, m := range res.Phases {
		rep.Notes = append(rep.Notes, fmt.Sprintf("phase %s begins at collection %d", m.Label, m.Collections))
	}
	rep.Notes = append(rep.Notes,
		"shape: cold-start transient, then the rate settles; at the Reorg1->Traverse->Reorg2 transition the rate destabilizes and yield drops (§4.1.2)")
	return rep, nil
}

// Fig8 repeats the SAIO and SAGA accuracy sweeps at connectivities 6 and 9
// (one run per point, as in the paper).
func (r *Runner) Fig8(ctx context.Context) (*Report, error) {
	opts := r.opts
	rep := &Report{
		ID:    "fig8",
		Title: "Sensitivity of policy accuracy to database connectivity",
		XName: "requested_pct",
		YName: "achieved %",
	}
	t := &metrics.Table{Header: []string{"connectivity", "policy", "requested %", "achieved %"}}
	for _, conn := range []int{6, 9} {
		traces, err := r.traces.get(ctx, conn, opts.SeedBase, 1)
		if err != nil {
			return nil, err
		}
		saio := &metrics.Series{Name: fmt.Sprintf("conn%d_saio_achieved", conn)}
		for _, frac := range saioFracs {
			frac := frac
			mr, err := r.runMany(ctx, sim.RunnerConfig{
				Traces: traces,
				MakePolicy: func(int) (core.RatePolicy, error) {
					return core.NewSAIO(core.SAIOConfig{Frac: frac})
				},
				PreambleCollections: opts.Preamble,
			})
			if err != nil {
				return nil, err
			}
			saio.Add(frac*100, mr.GCIO.Mean*100)
			t.AddRow(fmt.Sprint(conn), "saio", fmt.Sprintf("%.0f", frac*100), fmt.Sprintf("%.2f", mr.GCIO.Mean*100))
		}
		rep.Series = append(rep.Series, saio)
		for _, estName := range []string{"oracle", "fgs-hb"} {
			estName := estName
			saga := &metrics.Series{Name: fmt.Sprintf("conn%d_saga_%s_achieved", conn, estName)}
			for _, frac := range sagaFracs {
				frac := frac
				mr, err := r.runMany(ctx, sim.RunnerConfig{
					Traces: traces,
					MakePolicy: func(int) (core.RatePolicy, error) {
						est, err := core.NewEstimator(estName, 0.8)
						if err != nil {
							return nil, err
						}
						return core.NewSAGA(core.SAGAConfig{Frac: frac}, est)
					},
					PreambleCollections: opts.Preamble,
				})
				if err != nil {
					return nil, err
				}
				saga.Add(frac*100, mr.Garbage.Mean*100)
				t.AddRow(fmt.Sprint(conn), "saga/"+estName, fmt.Sprintf("%.0f", frac*100), fmt.Sprintf("%.2f", mr.Garbage.Mean*100))
			}
			rep.Series = append(rep.Series, saga)
		}
	}
	rep.Table = t
	rep.Notes = append(rep.Notes,
		"shape: results consistent with figures 4 and 5 (connectivity 3), supporting policy effectiveness across connectivities")
	return rep, nil
}
