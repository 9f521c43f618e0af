package gc

import (
	"strings"
	"testing"

	"odbgc/internal/objstore"
	"odbgc/internal/storage"
)

// testHeap builds a heap over a tiny geometry: 100-byte pages, 4-page
// (400-byte) partitions, 4-page buffer. Objects of size 100 fill exactly
// one page, so placement is easy to reason about.
func testHeap(t testing.TB) *Heap {
	t.Helper()
	disk, err := storage.NewManager(storage.Config{PageSize: 100, PagesPerPartition: 4, BufferPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	return NewHeap(objstore.NewStore(), disk)
}

// mk creates an object of the given size with nslots pointer slots.
func mk(t *testing.T, h *Heap, oid objstore.OID, size, nslots int) {
	t.Helper()
	if err := h.Create(oid, objstore.ClassAtomicPart, size, nslots); err != nil {
		t.Fatal(err)
	}
}

// link performs a non-init overwrite src[slot] = dst, expecting old nil.
func link(t *testing.T, h *Heap, src objstore.OID, slot int, dst objstore.OID) {
	t.Helper()
	if err := h.Overwrite(src, slot, objstore.NilOID, dst, false); err != nil {
		t.Fatal(err)
	}
}

// unlink overwrites src[slot] from old to nil.
func unlink(t *testing.T, h *Heap, src objstore.OID, slot int, old objstore.OID) {
	t.Helper()
	if err := h.Overwrite(src, slot, old, objstore.NilOID, false); err != nil {
		t.Fatal(err)
	}
}

func root(t *testing.T, h *Heap, oid objstore.OID) {
	t.Helper()
	if err := h.Store().AddRoot(oid); err != nil {
		t.Fatal(err)
	}
}

// externallyReferenced reports whether dst, placed in partition p, has
// remembered external references: whether collecting p keeps it as a root.
func externallyReferenced(h *Heap, p storage.PartitionID, dst objstore.OID) bool {
	part, ok := h.disk.PartitionOf(dst)
	return ok && part == p && h.ext.Get(dst) > 0
}

func mustPart(t *testing.T, h *Heap, oid objstore.OID) storage.PartitionID {
	t.Helper()
	p, ok := h.Disk().PartitionOf(oid)
	if !ok {
		t.Fatalf("object %v unplaced", oid)
	}
	return p
}

func TestCollectReclaimsUnreachable(t *testing.T) {
	h := testHeap(t)
	mk(t, h, 1, 100, 1) // root
	mk(t, h, 2, 100, 0) // reachable from 1
	mk(t, h, 3, 100, 0) // garbage after unlink
	root(t, h, 1)
	link(t, h, 1, 0, 3)
	unlink(t, h, 1, 0, 3)
	link(t, h, 1, 0, 2)
	if err := h.RecordOracleDead([]objstore.OID{3}); err != nil {
		t.Fatal(err)
	}

	res, err := h.Collect(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReclaimedObjects != 1 || res.ReclaimedBytes != 100 {
		t.Errorf("reclaim = %+v", res)
	}
	if res.LiveObjects != 2 || res.LiveBytes != 200 {
		t.Errorf("live = %+v", res)
	}
	if h.Store().Get(3) != nil {
		t.Error("dead object still in store")
	}
	if h.ActualGarbageBytes() != 0 {
		t.Errorf("garbage after collect = %d", h.ActualGarbageBytes())
	}
	if h.TotalCollectedBytes() != 100 || h.TotalGarbageBytes() != 100 {
		t.Errorf("ledger: collected=%d created=%d", h.TotalCollectedBytes(), h.TotalGarbageBytes())
	}
	if h.Collections() != 1 {
		t.Errorf("collections = %d", h.Collections())
	}
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestCollectKeepsExternallyReferenced(t *testing.T) {
	h := testHeap(t)
	// Partition 0: root 1, object 2, and two fillers. Partition 1: object
	// 3, referenced only from partition 0 — not a database root, but the
	// remembered set must keep it alive when partition 1 is collected.
	mk(t, h, 1, 100, 4)
	mk(t, h, 2, 100, 0)
	mk(t, h, 10, 100, 0)
	mk(t, h, 11, 100, 0)
	mk(t, h, 3, 100, 0)
	root(t, h, 1)
	link(t, h, 1, 0, 2)
	link(t, h, 1, 2, 10)
	link(t, h, 1, 3, 11)
	link(t, h, 1, 1, 3)

	p3 := mustPart(t, h, 3)
	if p3 == mustPart(t, h, 1) {
		t.Fatalf("test setup: 3 not in a different partition")
	}
	if !externallyReferenced(h, p3, 3) {
		t.Fatal("remset missing external reference to 3")
	}
	res, err := h.Collect(p3)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReclaimedObjects != 0 {
		t.Errorf("externally referenced object reclaimed: %+v", res)
	}
	if h.Store().Get(3) == nil {
		t.Error("object 3 vanished")
	}
}

func TestRemsetFollowsOverwrites(t *testing.T) {
	h := testHeap(t)
	mk(t, h, 1, 100, 1) // partition 0
	mk(t, h, 6, 100, 2) // partition 0: second cross-partition source
	mk(t, h, 3, 100, 0)
	mk(t, h, 4, 100, 0)
	mk(t, h, 5, 100, 0) // partition 1
	root(t, h, 1)

	p5 := mustPart(t, h, 5)
	if p5 == mustPart(t, h, 1) || p5 == mustPart(t, h, 6) {
		t.Fatal("setup: 5 must live in its own partition")
	}
	link(t, h, 1, 0, 5)
	if !externallyReferenced(h, p5, 5) {
		t.Error("remset entry missing after link")
	}
	unlink(t, h, 1, 0, 5)
	if externallyReferenced(h, p5, 5) {
		t.Error("remset entry not removed after unlink")
	}
	// Two references from the same source: both must be dropped before the
	// entry disappears.
	link(t, h, 6, 0, 5)
	link(t, h, 6, 1, 5)
	unlink(t, h, 6, 0, 5)
	if !externallyReferenced(h, p5, 5) {
		t.Error("remset entry dropped while one reference remains")
	}
	unlink(t, h, 6, 1, 5)
	if externallyReferenced(h, p5, 5) {
		t.Error("remset entry kept after all references removed")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestCrossPartitionChainNeedsTwoPasses verifies the multi-pass reclamation
// the paper's collector exhibits: a dead object in partition B stays pinned
// by a dead referencer in partition A until A is collected.
func TestCrossPartitionChainNeedsTwoPasses(t *testing.T) {
	h := testHeap(t)
	mk(t, h, 1, 100, 3) // root, partition 0
	mk(t, h, 2, 100, 1) // partition 0; will die holding a ref to 3
	mk(t, h, 10, 100, 0)
	mk(t, h, 11, 100, 0) // fillers completing partition 0
	mk(t, h, 3, 100, 0)  // partition 1; dead but pinned by 2
	root(t, h, 1)
	link(t, h, 1, 1, 10)
	link(t, h, 1, 2, 11)
	link(t, h, 1, 0, 2)
	link(t, h, 2, 0, 3)
	unlink(t, h, 1, 0, 2) // 2 and 3 both die
	if err := h.RecordOracleDead([]objstore.OID{2, 3}); err != nil {
		t.Fatal(err)
	}
	pA := mustPart(t, h, 2)
	pB := mustPart(t, h, 3)
	if pA == pB {
		t.Fatalf("setup: expected different partitions, got %d/%d", pA, pB)
	}

	// Pass 1 on B: 3 survives, pinned by dead 2's remembered reference.
	res, err := h.Collect(pB)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReclaimedObjects != 0 {
		t.Fatalf("pinned object reclaimed prematurely")
	}
	// Pass 2 on A: 2 dies, dropping its remset entry.
	res, err = h.Collect(pA)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReclaimedObjects != 1 || res.ReclaimedBytes != 100 {
		t.Fatalf("pass 2 = %+v", res)
	}
	// Pass 3 on B: 3 is now collectable.
	res, err = h.Collect(pB)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReclaimedObjects != 1 || res.ReclaimedBytes != 100 {
		t.Fatalf("pass 3 = %+v", res)
	}
	if h.ActualGarbageBytes() != 0 {
		t.Errorf("garbage left: %d", h.ActualGarbageBytes())
	}
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestCrossPartitionCycleIsNeverReclaimed documents the partitioned
// collector's conservatism: a dead cycle spanning two partitions pins
// itself forever, because pointers leaving the collected partition are not
// traversed. (The OO7 generator's deletion protocol deliberately severs
// such cycles; see oo7.deleteHalf.)
func TestCrossPartitionCycleIsNeverReclaimed(t *testing.T) {
	h := testHeap(t)
	mk(t, h, 1, 100, 4) // root, partition 0
	mk(t, h, 2, 100, 1) // partition 0
	mk(t, h, 10, 100, 0)
	mk(t, h, 11, 100, 0) // fillers completing partition 0
	mk(t, h, 3, 100, 1)  // partition 1
	root(t, h, 1)
	link(t, h, 1, 2, 10)
	link(t, h, 1, 3, 11)
	link(t, h, 1, 0, 2)
	link(t, h, 1, 1, 3)
	link(t, h, 2, 0, 3) // cross refs both ways
	link(t, h, 3, 0, 2)
	unlink(t, h, 1, 0, 2)
	unlink(t, h, 1, 1, 3) // 2 <-> 3 now a dead cross-partition cycle
	if err := h.RecordOracleDead([]objstore.OID{2, 3}); err != nil {
		t.Fatal(err)
	}

	for pass := 0; pass < 4; pass++ {
		for p := 0; p < h.Disk().NumPartitions(); p++ {
			res, err := h.Collect(storage.PartitionID(p))
			if err != nil {
				t.Fatal(err)
			}
			if res.ReclaimedObjects != 0 {
				t.Fatalf("cross-partition cycle member reclaimed on pass %d", pass)
			}
		}
	}
	if h.ActualGarbageBytes() != 200 {
		t.Errorf("garbage = %d, want the full cycle (200)", h.ActualGarbageBytes())
	}
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestCollectorRefusesUndeclaredGarbage(t *testing.T) {
	h := testHeap(t)
	mk(t, h, 1, 100, 1)
	mk(t, h, 2, 100, 0)
	root(t, h, 1)
	link(t, h, 1, 0, 2)
	unlink(t, h, 1, 0, 2)
	// The oracle was never told object 2 died: collection must fail loudly
	// rather than silently diverge from ground truth.
	_, err := h.Collect(0)
	if err == nil || !strings.Contains(err.Error(), "oracle believes live") {
		t.Errorf("error = %v, want oracle mismatch", err)
	}
}

func TestOverwriteValidation(t *testing.T) {
	h := testHeap(t)
	mk(t, h, 1, 100, 1)
	mk(t, h, 2, 100, 0)
	if err := h.Overwrite(1, 0, 2, 2, false); err == nil {
		t.Error("wrong wantOld accepted")
	}
	if err := h.Overwrite(99, 0, objstore.NilOID, 2, false); err == nil {
		t.Error("absent source accepted")
	}
	if err := h.RecordOracleDead([]objstore.OID{99}); err == nil {
		t.Error("oracle-dead for absent object accepted")
	}
	link(t, h, 1, 0, 2)
	unlink(t, h, 1, 0, 2)
	if err := h.RecordOracleDead([]objstore.OID{2}); err != nil {
		t.Fatal(err)
	}
	if err := h.RecordOracleDead([]objstore.OID{2}); err == nil {
		t.Error("double oracle-dead accepted")
	}
}

func TestClocksAndPOCounters(t *testing.T) {
	h := testHeap(t)
	mk(t, h, 1, 100, 2)
	mk(t, h, 2, 100, 0)
	root(t, h, 1)

	if err := h.Overwrite(1, 0, objstore.NilOID, 2, true); err != nil { // init store
		t.Fatal(err)
	}
	if h.OverwriteClock() != 0 {
		t.Error("init store advanced the overwrite clock")
	}
	link(t, h, 1, 1, 2) // non-init, old nil: clock ticks, no PO
	if h.OverwriteClock() != 1 {
		t.Errorf("clock = %d, want 1", h.OverwriteClock())
	}
	if h.SumPartitionOverwrites() != 0 {
		t.Error("PO counted for nil old target")
	}
	unlink(t, h, 1, 1, 2) // old target in partition 0: PO(0)++
	if h.PartitionOverwrites(0) != 1 || h.SumPartitionOverwrites() != 1 {
		t.Errorf("PO(0) = %d, sum = %d", h.PartitionOverwrites(0), h.SumPartitionOverwrites())
	}
	// A collection resets the collected partition's PO.
	if err := h.Overwrite(1, 0, 2, objstore.NilOID, false); err != nil {
		t.Fatal(err)
	}
	if err := h.RecordOracleDead([]objstore.OID{2}); err != nil {
		t.Fatal(err)
	}
	res, err := h.Collect(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.PartitionPO != 2 {
		t.Errorf("collection saw PO %d, want 2", res.PartitionPO)
	}
	if h.PartitionOverwrites(0) != 0 {
		t.Error("PO not reset by collection")
	}
}

func TestPhysicalFixupsCostMoreIO(t *testing.T) {
	run := func(fixups bool) uint64 {
		h := testHeap(t)
		h.SetPhysicalFixups(fixups)
		// Partition 0: root 1 and three cross-partition referencers.
		mk(t, h, 1, 100, 3)
		mk(t, h, 2, 100, 1)
		mk(t, h, 3, 100, 1)
		mk(t, h, 4, 100, 1)
		// Partition 1: three referenced objects plus garbage.
		mk(t, h, 5, 100, 0)
		mk(t, h, 6, 100, 0)
		mk(t, h, 7, 100, 0)
		mk(t, h, 8, 100, 0)
		root(t, h, 1)
		link(t, h, 1, 0, 2)
		link(t, h, 1, 1, 3)
		link(t, h, 1, 2, 4)
		link(t, h, 2, 0, 5)
		link(t, h, 3, 0, 6)
		link(t, h, 4, 0, 7)
		if err := h.RecordOracleDead([]objstore.OID{8}); err != nil {
			t.Fatal(err)
		}
		res, err := h.Collect(mustPart(t, h, 5))
		if err != nil {
			t.Fatal(err)
		}
		if res.ReclaimedObjects != 1 {
			t.Fatalf("reclaim = %+v", res)
		}
		return res.IO.GCIO()
	}
	withOut := run(false)
	with := run(true)
	t.Logf("GC I/O per collection: logical OIDs %d, physical fixups %d", withOut, with)
	if with <= withOut {
		t.Errorf("physical fixups (%d) not more expensive than logical OIDs (%d)", with, withOut)
	}
}

func TestDatabaseBytes(t *testing.T) {
	h := testHeap(t)
	mk(t, h, 1, 100, 0)
	mk(t, h, 2, 50, 0)
	if h.DatabaseBytes() != 150 {
		t.Errorf("DatabaseBytes = %d, want 150", h.DatabaseBytes())
	}
}

func TestCollectUnknownPartition(t *testing.T) {
	h := testHeap(t)
	if _, err := h.Collect(3); err == nil {
		t.Error("collect of unknown partition accepted")
	}
}

// TestUnplaceableCreateLeavesNothing: a size the storage manager cannot place
// — not positive, or larger than a page — is refused before the object enters
// the store. It used to stay there unplaced, and the invariant sweep then
// failed with "object oid:2 in store but not placed".
func TestUnplaceableCreateLeavesNothing(t *testing.T) {
	h := testHeap(t) // 100-byte pages
	mk(t, h, 1, 50, 1)
	for _, size := range []int{0, -1, 101, 1 << 33} {
		if err := h.Create(h.Store().NextOID(), objstore.ClassAtomicPart, size, 1); err == nil {
			t.Errorf("create of size %d accepted", size)
		}
		if n := h.Store().Len(); n != 1 {
			t.Errorf("refused create of size %d left %d objects in the store, want 1", size, n)
		}
		if err := h.CheckInvariants(); err != nil {
			t.Errorf("after a refused create of size %d: %v", size, err)
		}
	}
	mk(t, h, h.Store().NextOID(), 100, 0)
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}
