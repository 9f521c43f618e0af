package storage

import (
	"testing"

	"odbgc/internal/objstore"
)

// BenchmarkAllocateTouch times placement and page access together, in the
// mix a replay drives them: each iteration places one new 133-byte object
// (the OO7 mean) and touches three placed earlier, one of them dirtying. The
// manager starts over every 30 000 objects so the run's length does not set
// the database's size.
func BenchmarkAllocateTouch(b *testing.B) {
	const n = 30_000
	var m *Manager
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % n
		if k == 0 {
			var err error
			if m, err = NewManager(DefaultConfig()); err != nil {
				b.Fatal(err)
			}
		}
		oid := objstore.OID(k + 1)
		if _, err := m.Allocate(oid, 133); err != nil {
			b.Fatal(err)
		}
		for j, back := range [3]int{0, 40, 900} {
			if back > k {
				back = k
			}
			if err := m.Touch(oid-objstore.OID(back), j == 2); err != nil {
				b.Fatal(err)
			}
		}
	}
}
