package odbgc

// One benchmark per table and figure of the paper's evaluation, plus
// ablations over the design choices called out in DESIGN.md. Each paper
// benchmark runs a reduced-scale version of the corresponding experiment
// (fewer seeded runs than cmd/experiments) and reports the headline quantity
// via b.ReportMetric, so
//
//	go test -run '^$' -bench . -benchtime 1x .
//
// is a quick reproduction pass. Full-methodology regeneration (10 runs per
// data point, all sweeps) is `go run ./cmd/experiments`. Benchmarks that time
// one layer live beside that layer (internal/*/bench_test.go); performance
// claims are made on the repository benchmark under bench/.

import (
	"context"
	"math"
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/experiments"
	"odbgc/internal/gc"
	"odbgc/internal/metrics"
	"odbgc/internal/oo7"
	"odbgc/internal/sim"
	"odbgc/internal/storage"
	"odbgc/internal/trace"
)

// benchOpts is the reduced methodology for benchmarks.
var benchOpts = experiments.Options{Runs: 2}

// benchTrace caches one OO7 trace per connectivity across benchmarks.
var benchTraces = map[int]*trace.Trace{}

func getTrace(b *testing.B, conn int) *trace.Trace {
	b.Helper()
	if tr, ok := benchTraces[conn]; ok {
		return tr
	}
	tr, err := oo7.FullTrace(oo7.SmallPrime(conn), 1)
	if err != nil {
		b.Fatal(err)
	}
	benchTraces[conn] = tr
	return tr
}

// BenchmarkTable1DatabaseBuild regenerates Table 1: building the OO7 Small'
// database and deriving its structure statistics.
func BenchmarkTable1DatabaseBuild(b *testing.B) {
	var bytesMB float64
	for i := 0; i < b.N; i++ {
		g, err := oo7.NewGenerator(oo7.SmallPrime(3), 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := g.GenDB(); err != nil {
			b.Fatal(err)
		}
		bytesMB = float64(g.Info().Bytes) / (1 << 20)
	}
	b.ReportMetric(bytesMB, "db-MB")
}

// BenchmarkFig1FixedRateSweep regenerates Figure 1: the fixed-rate
// time/space tradeoff (total I/O and garbage collected vs collection rate).
func BenchmarkFig1FixedRateSweep(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		rep, err := experiments.NewRunner(benchOpts).Fig1(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		io := rep.Series[0].Points
		ratio = io[0].Y / io[len(io)-1].Y // I/O cost of rate 50 vs rate 800
	}
	b.ReportMetric(ratio, "io50/io800")
}

// BenchmarkFig2PhaseTrace regenerates Figure 2: the four-phase application
// trace and its per-phase event profile.
func BenchmarkFig2PhaseTrace(b *testing.B) {
	var events float64
	for i := 0; i < b.N; i++ {
		rep, err := experiments.NewRunner(benchOpts).Fig2(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		events = float64(len(rep.Table.Rows))
	}
	b.ReportMetric(events, "phases")
}

// BenchmarkFig4SAIOAccuracy regenerates Figure 4: SAIO requested-vs-achieved
// I/O percentage. Reports the mean absolute error in percentage points.
func BenchmarkFig4SAIOAccuracy(b *testing.B) {
	var mae float64
	for i := 0; i < b.N; i++ {
		rep, err := experiments.NewRunner(benchOpts).Fig4(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		mae = meanAbsErr(rep.Series[0].Points)
	}
	b.ReportMetric(mae, "mae-pct-points")
}

// BenchmarkFig5SAGAAccuracy regenerates Figure 5: SAGA requested-vs-achieved
// garbage percentage for all three estimators. Reports FGS/HB's error.
func BenchmarkFig5SAGAAccuracy(b *testing.B) {
	var fgsMAE float64
	for i := 0; i < b.N; i++ {
		rep, err := experiments.NewRunner(benchOpts).Fig5(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range rep.Series {
			if s.Name == "achieved_fgs-hb" {
				fgsMAE = meanAbsErr(s.Points)
			}
		}
	}
	b.ReportMetric(fgsMAE, "fgs-mae-pct-points")
}

// BenchmarkFig6Estimators regenerates Figure 6: the time-varying
// target/actual/estimated garbage series for CGS/CB and FGS/HB.
func BenchmarkFig6Estimators(b *testing.B) {
	var series float64
	for i := 0; i < b.N; i++ {
		rep, err := experiments.NewRunner(benchOpts).Fig6(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		series = float64(len(rep.Series))
	}
	b.ReportMetric(series, "series")
}

// BenchmarkFig7HistoryStudy regenerates Figure 7: the FGS/HB history
// parameter study (a) and the rate/yield/garbage time series (b).
func BenchmarkFig7HistoryStudy(b *testing.B) {
	var colls float64
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchOpts)
		if _, err := r.Fig7a(context.Background()); err != nil {
			b.Fatal(err)
		}
		rep, err := r.Fig7b(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		colls = float64(rep.Series[0].Len())
	}
	b.ReportMetric(colls, "collections")
}

// BenchmarkFig8Connectivity regenerates Figure 8: policy accuracy at
// connectivities 6 and 9.
func BenchmarkFig8Connectivity(b *testing.B) {
	var rows float64
	for i := 0; i < b.N; i++ {
		rep, err := experiments.NewRunner(benchOpts).Fig8(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		rows = float64(len(rep.Table.Rows))
	}
	b.ReportMetric(rows, "data-points")
}

// meanAbsErr averages |achieved − requested| over a requested-vs-achieved
// series (both in percentage points).
func meanAbsErr(pts []metrics.Point) float64 {
	if len(pts) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, p := range pts {
		sum += math.Abs(p.Y - p.X)
	}
	return sum / float64(len(pts))
}

// --- ablation benchmarks over DESIGN.md's design choices ---------------------

// BenchmarkAblationSelectionPolicy compares partition-selection policies at
// a fixed collection rate: UPDATEDPOINTER vs round-robin vs random vs the
// oracle upper bound. Reports reclaimed megabytes for the policy under test.
func BenchmarkAblationSelectionPolicy(b *testing.B) {
	tr := getTrace(b, 3)
	for _, selName := range []string{"updated-pointer", "hybrid", "round-robin", "random", "oracle-max-garbage"} {
		b.Run(selName, func(b *testing.B) {
			var reclaimedMB float64
			for i := 0; i < b.N; i++ {
				pol, err := core.NewFixedRate(300)
				if err != nil {
					b.Fatal(err)
				}
				sel, err := gc.NewSelectionPolicy(selName, 1)
				if err != nil {
					b.Fatal(err)
				}
				s, err := sim.New(sim.Config{Policy: pol, Selection: sel})
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.Run(tr)
				if err != nil {
					b.Fatal(err)
				}
				reclaimedMB = float64(res.TotalReclaimed) / (1 << 20)
			}
			b.ReportMetric(reclaimedMB, "reclaimed-MB")
		})
	}
}

// BenchmarkAblationPhysicalFixups compares collector I/O with logical-OID
// indirection (default) against physical pointer fixups.
func BenchmarkAblationPhysicalFixups(b *testing.B) {
	tr := getTrace(b, 3)
	for _, fixups := range []bool{false, true} {
		name := "logical-oids"
		if fixups {
			name = "physical-fixups"
		}
		b.Run(name, func(b *testing.B) {
			var gcioPerColl float64
			for i := 0; i < b.N; i++ {
				pol, err := core.NewFixedRate(300)
				if err != nil {
					b.Fatal(err)
				}
				s, err := sim.New(sim.Config{Policy: pol, PhysicalFixups: fixups})
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.Run(tr)
				if err != nil {
					b.Fatal(err)
				}
				if n := len(res.Collections); n > 0 {
					gcioPerColl = float64(res.Final.GCIO()) / float64(n)
				}
			}
			b.ReportMetric(gcioPerColl, "gcio/coll")
		})
	}
}

// BenchmarkAblationBufferSize revisits §3.1's buffer discussion: a buffer
// much smaller than a partition makes collection I/O-heavy; a much larger
// one hides the locality benefit. Reports total I/O.
func BenchmarkAblationBufferSize(b *testing.B) {
	tr := getTrace(b, 3)
	for _, pages := range []int{4, 12, 48} {
		b.Run(map[int]string{4: "third-partition", 12: "one-partition", 48: "four-partitions"}[pages], func(b *testing.B) {
			var totalIO float64
			for i := 0; i < b.N; i++ {
				pol, err := core.NewSAIO(core.SAIOConfig{Frac: 0.10})
				if err != nil {
					b.Fatal(err)
				}
				cfg := storage.DefaultConfig()
				cfg.BufferPages = pages
				s, err := sim.New(sim.Config{Policy: pol, Storage: cfg})
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.Run(tr)
				if err != nil {
					b.Fatal(err)
				}
				totalIO = float64(res.Final.TotalIO())
			}
			b.ReportMetric(totalIO, "total-io")
		})
	}
}

// BenchmarkAblationDeclusterBatch varies how aggressively Reorg2 interleaves
// reinsertions, measuring the impact on SAGA/FGS-HB accuracy.
func BenchmarkAblationDeclusterBatch(b *testing.B) {
	for _, batch := range []int{1, 10, 150} {
		b.Run(map[int]string{1: "clustered", 10: "batch10", 150: "global"}[batch], func(b *testing.B) {
			p := oo7.SmallPrime(3)
			p.DeclusterBatch = batch
			tr, err := oo7.FullTrace(p, 1)
			if err != nil {
				b.Fatal(err)
			}
			var achieved float64
			for i := 0; i < b.N; i++ {
				est, err := core.NewFGSHB(0.8)
				if err != nil {
					b.Fatal(err)
				}
				pol, err := core.NewSAGA(core.SAGAConfig{Frac: 0.10}, est)
				if err != nil {
					b.Fatal(err)
				}
				s, err := sim.New(sim.Config{Policy: pol})
				if err != nil {
					b.Fatal(err)
				}
				res, err := s.Run(tr)
				if err != nil {
					b.Fatal(err)
				}
				achieved = res.GarbageFrac * 100
			}
			b.ReportMetric(achieved, "garbage-pct")
		})
	}
}
