package oo7

import (
	"fmt"
	"testing"
)

// BenchmarkTraceGeneration times synthesizing one OO7 Small' four-phase
// trace, a fresh seed per iteration: the set-up of every replay. conn=3 is
// the trace every replay workload loads; conn=9 is Fig 8's far end, where a
// composite's scope is 201 objects and the oracle's walk is longest.
func BenchmarkTraceGeneration(b *testing.B) {
	for _, conn := range []int{3, 9} {
		b.Run(fmt.Sprintf("conn=%d", conn), func(b *testing.B) {
			b.ReportAllocs()
			events := 0
			for i := 0; i < b.N; i++ {
				tr, err := FullTrace(SmallPrime(conn), int64(i))
				if err != nil {
					b.Fatal(err)
				}
				events += tr.Len()
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds()/1e6, "Mevents/s")
		})
	}
}
