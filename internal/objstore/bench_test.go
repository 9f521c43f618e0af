package objstore

import "testing"

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
