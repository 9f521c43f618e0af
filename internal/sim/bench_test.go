package sim

import (
	"bytes"
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/oo7"
	"odbgc/internal/trace"
)

// benchReplay is one repetition of a replay workload of the repository
// benchmark (bench/replay.go), in process: the OO7 Small' connectivity-3
// trace of seed 1, written in the binary format and read back, through
// New+Run under the given rate policy with UPDATEDPOINTER selection, Finish's
// invariant sweep included. A run of fewer than minColl collections is not the
// workload the benchmark is named after.
func benchReplay(b *testing.B, policy func() (core.RatePolicy, error), minColl int) {
	gen, err := oo7.FullTrace(oo7.SmallPrime(3), 1)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, gen); err != nil {
		b.Fatal(err)
	}
	tr, err := trace.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol, err := policy()
		if err != nil {
			b.Fatal(err)
		}
		s, err := New(Config{Policy: pol, Selection: gc.UpdatedPointer{}})
		if err != nil {
			b.Fatal(err)
		}
		res, err := s.Run(tr)
		if err != nil {
			b.Fatal(err)
		}
		if n := len(res.Collections); n < minColl {
			b.Fatalf("%d collections, want at least %d", n, minColl)
		}
	}
	b.ReportMetric(float64(len(tr.Events))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}

// BenchmarkReplayFixed50 is replay-gcheavy's repetition: fixed-rate 50, 394
// collections. A cpu profile of it (make profile PKG=./internal/sim
// BENCH=ReplayFixed50) is the workload's.
func BenchmarkReplayFixed50(b *testing.B) {
	benchReplay(b, func() (core.RatePolicy, error) { return core.NewFixedRate(50) }, 300)
}

// BenchmarkReplaySAIO10 is replay-oo7's repetition: SAIO at a 10 % collector
// I/O share, 22 collections, so the mutator path is nearly all of it.
func BenchmarkReplaySAIO10(b *testing.B) {
	benchReplay(b, func() (core.RatePolicy, error) { return core.NewSAIO(core.SAIOConfig{Frac: 0.10}) }, 20)
}

// BenchmarkReplaySAGA10 is the same trace under SAGA at a 10 % garbage share
// with the FGS/HB estimator: the one replay whose policy asks an estimator at
// every decision.
func BenchmarkReplaySAGA10(b *testing.B) {
	benchReplay(b, func() (core.RatePolicy, error) {
		est, err := core.NewFGSHB(0.8)
		if err != nil {
			return nil, err
		}
		return core.NewSAGA(core.SAGAConfig{Frac: 0.10}, est)
	}, 1)
}
