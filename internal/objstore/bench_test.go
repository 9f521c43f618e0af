package objstore

import (
	"runtime"
	"testing"
)

// BenchmarkStoreGetSetSlot times the object table's two mutator-path calls on
// a 30 000-object store (the size of the OO7 Small' database): one Get and one
// SetSlot, which itself looks up the holder and the target.
func BenchmarkStoreGetSetSlot(b *testing.B) {
	const n = 30_000
	s := NewStore()
	for i := 0; i < n; i++ {
		if _, err := s.Create(ClassAtomicPart, 100, 3); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A stride coprime to n visits every object before repeating.
		src := OID(1 + (i*7919)%n)
		dst := OID(1 + (i*104729)%n)
		if s.Get(src) == nil {
			b.Fatal("object missing")
		}
		if _, err := s.SetSlot(src, i%3, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreCreate times growing a store to the size of the OO7 Small'
// database: 30 000 three-slot creates into a fresh store per iteration,
// with time and allocations also reported per create.
func BenchmarkStoreCreate(b *testing.B) {
	const n = 30_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := NewStore()
		for j := 0; j < n; j++ {
			if _, err := s.Create(ClassAtomicPart, 100, 3); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	creates := float64(b.N) * n
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/creates, "ns/create")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/creates, "allocs/create")
}

// BenchmarkStoreChurn times one remove and one create at a constant
// population of 30 000 (see churnStore), and fails if the pair allocates.
func BenchmarkStoreChurn(b *testing.B) {
	_, step := churnStore(b, 30_000)
	if n := testing.AllocsPerRun(2000, step); n != 0 {
		b.Fatalf("%v allocations per remove+create, want 0", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
