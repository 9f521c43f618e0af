package gc

import (
	"math/rand"
	"testing"

	"odbgc/internal/objstore"
	"odbgc/internal/storage"
)

// benchHeap builds a heap of n 133-byte, 3-slot objects in the paper's
// geometry (about 700 to a partition), all reachable from object 1: slot 0
// chains each object to the next, slot 1 points a little way back (mostly the
// same partition) and slot 2 anywhere earlier (mostly another partition), so
// every partition has remembered targets. Slot 2 of the second half is left
// nil for the overwrite benchmark to fill.
func benchHeap(b *testing.B, n int) *Heap {
	disk, err := storage.NewManager(storage.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	h := NewHeap(objstore.NewStore(), disk)
	rng := rand.New(rand.NewSource(1))
	for i := 1; i <= n; i++ {
		if err := h.Create(objstore.OID(i), objstore.ClassAtomicPart, 133, 3); err != nil {
			b.Fatal(err)
		}
	}
	if err := h.AddRoot(1); err != nil {
		b.Fatal(err)
	}
	set := func(src, slot, dst int) {
		if err := h.Overwrite(objstore.OID(src), slot, objstore.NilOID, objstore.OID(dst), true); err != nil {
			b.Fatal(err)
		}
	}
	for i := 1; i <= n; i++ {
		if i < n {
			set(i, 0, i+1)
		}
		if i > 1 {
			set(i, 1, i-1-rng.Intn(min(i-1, 50)))
			if i <= n/2 {
				set(i, 2, 1+rng.Intn(i-1))
			}
		}
	}
	return h
}

// BenchmarkHeapOverwrite times the pointer-overwrite barrier on a 30 000-object
// heap: slot 2 of an object in the second half moves from one target in the
// first half to another, nearly always across partitions, so each call forgets
// one remembered reference and records another. Sources are visited in
// placement order, as a traversal would, so the buffer pool mostly hits and
// the figure is the barrier's, not the pool's.
func BenchmarkHeapOverwrite(b *testing.B) {
	const n = 30_000
	h := benchHeap(b, n)
	cur := make([]objstore.OID, n+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := n/2 + 1 + i%(n/2)
		dst := objstore.OID(1 + (i*104729)%(n/2))
		if err := h.Overwrite(objstore.OID(src), 2, cur[src], dst, false); err != nil {
			b.Fatal(err)
		}
		cur[src] = dst
	}
}

// BenchmarkHeapCollect times one collection of a fixed partition population:
// every object of the partition survives (scan, trace, compact, flush), so
// each iteration does the same work.
func BenchmarkHeapCollect(b *testing.B) {
	h := benchHeap(b, 30_000)
	const p = 7
	want := len(h.Disk().AppendObjectsIn(nil, p))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := h.Collect(p)
		if err != nil {
			b.Fatal(err)
		}
		if res.LiveObjects != want || res.ReclaimedObjects != 0 {
			b.Fatalf("collection %d kept %d of %d objects", i, res.LiveObjects, want)
		}
	}
}

// BenchmarkCheckInvariants times the whole-heap sweep sim.Finish runs at the
// end of every replay, at 30 000 objects.
func BenchmarkCheckInvariants(b *testing.B) {
	h := benchHeap(b, 30_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := h.CheckInvariants(); err != nil {
			b.Fatal(err)
		}
	}
}
