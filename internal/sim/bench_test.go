package sim

import (
	"bytes"
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/gc"
	"odbgc/internal/oo7"
	"odbgc/internal/trace"
)

// BenchmarkReplayFixed50 is one repetition of the repository benchmark's
// replay-gcheavy workload (bench/replay.go), in process: the OO7 Small'
// connectivity-3 trace of seed 1, written in the binary format and read
// back, through New+Run under fixed-rate 50 with UPDATEDPOINTER selection —
// 394 collections, Finish's invariant sweep included. A cpu profile of it
// (make profile PKG=./internal/sim BENCH=ReplayFixed50) is the workload's.
func BenchmarkReplayFixed50(b *testing.B) {
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
		pol, err := core.NewFixedRate(50)
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
		if len(res.Collections) < 300 {
			b.Fatalf("%d collections: not the collector-heavy run", len(res.Collections))
		}
	}
	b.ReportMetric(float64(len(tr.Events))*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}
