package oo7

import "testing"

// BenchmarkTraceGeneration times synthesizing one OO7 Small' connectivity-3
// four-phase trace, a fresh seed per iteration: the set-up of every replay.
func BenchmarkTraceGeneration(b *testing.B) {
	b.ReportAllocs()
	events := 0
	for i := 0; i < b.N; i++ {
		tr, err := FullTrace(SmallPrime(3), int64(i))
		if err != nil {
			b.Fatal(err)
		}
		events += tr.Len()
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds()/1e6, "Mevents/s")
}
