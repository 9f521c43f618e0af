package gc

import (
	"reflect"
	"strings"
	"testing"

	"odbgc/internal/objstore"
	"odbgc/internal/storage"
)

// TestForgetUnderflowFailsAtOnce: dropping a remembered reference that was
// never recorded used to return silently and surface only at the final
// sweep. With counts it is an error on the spot, naming the partition, the
// target and the source, both from the mutator and from the collector.
func TestForgetUnderflowFailsAtOnce(t *testing.T) {
	h := testHeap(t)
	for oid := objstore.OID(1); oid <= 8; oid++ {
		mk(t, h, oid, 100, 1)
	}
	root(t, h, 1)
	link(t, h, 1, 0, 5) // 1 in partition 0, 5 in partition 1
	link(t, h, 2, 0, 6) // 2 is garbage in partition 0, pointing into partition 1
	if err := h.RecordOracleDead([]objstore.OID{2, 3, 4, 6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Lose both counts behind the heap's back.
	h.ext.Set(5, 0)
	h.ext.Set(6, 0)

	err := h.Overwrite(1, 0, 5, objstore.NilOID, false)
	for _, want := range []string{"underflow", "partition 1", "oid:5", "oid:1"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("overwrite past a lost count: %v, want an error naming %q", err, want)
		}
	}
	_, err = h.Collect(0) // reclaims 2, whose reference to 6 is no longer counted
	for _, want := range []string{"underflow", "partition 1", "oid:6", "oid:2"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("collect past a lost count: %v, want an error naming %q", err, want)
		}
	}
}

// TestCheckInvariantsCrossChecksTotals: every stored total is redundant with
// the parts it sums, and the sweep reports the one that drifted.
func TestCheckInvariantsCrossChecksTotals(t *testing.T) {
	for name, tc := range map[string]struct {
		damage func(*Heap)
		want   string
	}{
		"garbage total":   {func(h *Heap) { h.garbage++ }, "garbage total"},
		"overwrite total": {func(h *Heap) { h.poTotal-- }, "overwrite total"},
		"partition bytes": {func(h *Heap) { h.oracleDeadBytes[0] += 100; h.oracleDeadBytes[1] -= 100 }, "oracle garbage bytes"},
		"count too low":   {func(h *Heap) { h.ext.Set(5, 0) }, "ground truth 1"},
		"count too high":  {func(h *Heap) { h.ext.Set(7, 2) }, "ground truth 0"},
	} {
		h := buildSnapshotHeap(t)
		if err := h.RecordOracleDead([]objstore.OID{7, 8}); err != nil { // partition 1 gets garbage too
			t.Fatal(err)
		}
		if err := h.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		tc.damage(h)
		if err := h.CheckInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: sweep said %v, want an error containing %q", name, err, tc.want)
		}
	}
}

// TestRestoreHeapRebuildsDerivedState: the per-object reference counts and
// the running totals are not in the snapshot. A restored heap must answer
// every query the original answers, before and after more work.
func TestRestoreHeapRebuildsDerivedState(t *testing.T) {
	h := buildSnapshotHeap(t)
	unlink(t, h, 5, 0, 6) // a non-zero overwrite counter in partition 1
	if err := h.RecordOracleDead([]objstore.OID{6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	r, err := RestoreHeap(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	same := func(when string) {
		t.Helper()
		if h.ActualGarbageBytes() != r.ActualGarbageBytes() || h.ActualGarbageBytes() == 0 && when == "restored" {
			t.Errorf("%s: garbage total %d, original %d", when, r.ActualGarbageBytes(), h.ActualGarbageBytes())
		}
		if h.SumPartitionOverwrites() != r.SumPartitionOverwrites() || h.SumPartitionOverwrites() == 0 {
			t.Errorf("%s: overwrite total %d, original %d", when, r.SumPartitionOverwrites(), h.SumPartitionOverwrites())
		}
		if h.DatabaseBytes() != r.DatabaseBytes() || h.PinnedGarbageBytes() != r.PinnedGarbageBytes() {
			t.Errorf("%s: database %d pinned %d, original %d and %d", when,
				r.DatabaseBytes(), r.PinnedGarbageBytes(), h.DatabaseBytes(), h.PinnedGarbageBytes())
		}
		for oid := objstore.OID(1); oid <= 8; oid++ {
			p, _ := h.Disk().PartitionOf(oid)
			if h.ExternallyReferenced(p, oid) != r.ExternallyReferenced(p, oid) {
				t.Errorf("%s: %v externally referenced = %v, original %v", when, oid,
					r.ExternallyReferenced(p, oid), h.ExternallyReferenced(p, oid))
			}
		}
		if err := r.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", when, err)
		}
	}
	same("restored")
	for _, heap := range []*Heap{h, r} {
		if err := heap.Overwrite(1, 0, 5, objstore.NilOID, false); err != nil { // drops the one reference into partition 1
			t.Fatal(err)
		}
		if err := heap.RecordOracleDead([]objstore.OID{5}); err != nil {
			t.Fatal(err)
		}
		if _, err := heap.Collect(1); err != nil {
			t.Fatal(err)
		}
	}
	same("after a collection")
	if !reflect.DeepEqual(h.Snapshot(), r.Snapshot()) {
		t.Error("heaps diverged after identical work")
	}
}

// TestRestoreHeapRejectsDamagedIndexes: a partition index or an OID damaged
// into the far distance must fail the restore, not size a table by it.
func TestRestoreHeapRejectsDamagedIndexes(t *testing.T) {
	good := buildSnapshotHeap(t).Snapshot()

	bad := *good
	bad.Overwrites = append([]PartitionCounter(nil), good.Overwrites...)
	bad.Overwrites[0].Part = 1 << 40
	if _, err := RestoreHeap(&bad); err == nil {
		t.Error("overwrite counter for partition 2^40 accepted")
	}

	bad = *good
	bad.OracleDeadBytes = []PartitionCounter{{Part: -1, Value: 100}}
	if _, err := RestoreHeap(&bad); err == nil {
		t.Error("garbage counter for partition -1 accepted")
	}

	bad = *good
	disk := *good.Disk
	disk.Placements = append([]storage.PlacementEntry(nil), good.Disk.Placements...)
	disk.Placements[len(disk.Placements)-1].OID ^= 1 << 55
	bad.Disk = &disk
	if _, err := RestoreHeap(&bad); err == nil || !strings.Contains(err.Error(), "not in the snapshot store") {
		t.Errorf("placement for an OID 2^55 away: %v", err)
	}
}

// TestMarkEpochWrap: marks are compared against an epoch that every
// collection advances. When the epoch wraps, marks left by collections 2^32
// ago would read as current; the collector must start from a clean table.
func TestMarkEpochWrap(t *testing.T) {
	h := buildSnapshotHeap(t)
	twin, err := RestoreHeap(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	// Object 3 is garbage in partition 0. Give it the mark the wrapped epoch
	// is about to use, as a collection long ago could have.
	h.mark.Set(3, 1)
	h.epoch = ^uint32(0)
	got, err := h.Collect(0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.Collect(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || got.ReclaimedObjects != 1 {
		t.Fatalf("collection across the wrap = %+v, twin %+v", got, want)
	}
	if h.epoch != 2 {
		t.Errorf("epoch after wrap = %d, want 2", h.epoch)
	}
}

// TestMarkEpochWrapForeignTag: the trace follows a pointer when the target's
// mark equals this collection's member tag, without asking where the target
// is placed. A mark left in another partition 2^31 collections ago that
// equals the tag after the wrap would pull a foreign object into the copy;
// the clean table is what rules that out.
func TestMarkEpochWrapForeignTag(t *testing.T) {
	h := buildSnapshotHeap(t)
	twin, err := RestoreHeap(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	// Object 5 lives in partition 1 and is referenced from object 1 in
	// partition 0; 1 is the tag the wrapped epoch is about to hand out.
	if mustPart(t, h, 5) == mustPart(t, h, 1) {
		t.Fatal("fixture changed: 5 and 1 share a partition")
	}
	h.mark.Set(5, 1)
	h.epoch = ^uint32(0) - 1
	got, err := h.Collect(0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := twin.Collect(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("collection across the wrap = %+v, twin %+v", got, want)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// steadyHeap builds a heap of a few partitions with cross-partition
// pointers, already collected once so every table chunk and scratch list it
// will need exists.
func steadyHeap(t testing.TB) *Heap {
	h := testHeap(t)
	for oid := objstore.OID(1); oid <= 16; oid++ {
		if err := h.Create(oid, objstore.ClassAtomicPart, 100, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.AddRoot(1); err != nil {
		t.Fatal(err)
	}
	for oid := objstore.OID(1); oid < 16; oid++ {
		if err := h.Overwrite(oid, 0, objstore.NilOID, oid+1, true); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < h.NumPartitions(); p++ {
		if _, err := h.Collect(storage.PartitionID(p)); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// TestSteadyStateAllocatesNothing: with the hash maps gone, a mutator
// operation on existing objects and a repeated collection of a partition
// touch only table slots and reused lists.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	h := steadyHeap(t)
	var err error
	check := func(name string, fn func()) {
		t.Helper()
		if n := testing.AllocsPerRun(200, fn); n != 0 || err != nil {
			t.Errorf("%s: %v allocations per run, error %v", name, n, err)
		}
	}
	check("Access", func() { err = h.Access(7) })
	check("Update", func() { err = h.Update(7) })
	// Slot 1 of object 2 (partition 0) flips between a target in partition 1
	// and one in partition 3: every call forgets one remembered reference
	// and records another.
	targets := [2]objstore.OID{6, 14}
	if err := h.Overwrite(2, 1, objstore.NilOID, targets[0], false); err != nil {
		t.Fatal(err)
	}
	i := 0
	check("Overwrite", func() {
		err = h.Overwrite(2, 1, targets[i%2], targets[(i+1)%2], false)
		i++
	})
	check("Collect", func() { _, err = h.Collect(1) })
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
