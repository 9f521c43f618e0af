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

// BenchmarkHeapCollect times one collection of a 700-object partition (scan,
// tag, trace, compact, flush). In "survive" every object of a fixed partition
// survives, so each iteration does the same work on the same heap. In
// "reclaim" a tenth of the partition is garbage — replay-gcheavy's yield —
// so the dead list, the remembered-set teardown and the store removals are
// timed too; the heap is rebuilt for every iteration with the timer stopped.
func BenchmarkHeapCollect(b *testing.B) {
	b.Run("survive", func(b *testing.B) {
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
	})
	b.Run("reclaim", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			h, dead := reclaimHeap(b)
			members := len(h.Disk().AppendObjectsIn(nil, 0))
			b.StartTimer()
			res, err := h.Collect(0)
			if err != nil {
				b.Fatal(err)
			}
			if res.ReclaimedObjects != dead || res.LiveObjects != members-dead {
				b.Fatalf("collection %d reclaimed %d and kept %d of %d objects, want %d reclaimed",
					i, res.ReclaimedObjects, res.LiveObjects, members, dead)
			}
		}
	})
}

// reclaimHeap builds two partitions of 133-byte, 3-slot objects without an
// oracle. Nine in ten are chained from the rooted object 1 through slot 0,
// with slot 1 pointing a little way back; every tenth is referenced by
// nothing and points at an object of the other partition, so reclaiming it
// forgets a remembered reference. It returns the heap and how many objects
// of partition 0 are dead.
func reclaimHeap(b *testing.B) (*Heap, int) {
	const n = 1400
	disk, err := storage.NewManager(storage.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	h := NewHeap(objstore.NewStore(), disk)
	h.SetOracleless(true)
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
	dead, prev := 0, 1
	for i := 2; i <= n; i++ {
		if i%10 == 0 {
			set(i, 0, (i+n/2)%n+1) // the neighbour of its opposite number: never one of the dead
			if p, _ := disk.PartitionOf(objstore.OID(i)); p == 0 {
				dead++
			}
			continue
		}
		set(prev, 0, i)
		back := max(1, i-1-i%7)
		if back%10 == 0 {
			back-- // not one of the dead
		}
		set(i, 1, back)
		prev = i
	}
	return h, dead
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
