package gc

import (
	"bytes"
	"errors"
	"fmt"
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
		h := buildImageHeap(t)
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

// TestLoadedImageRebuildsDerivedState: the per-object reference counts and the
// oracle's garbage by partition are not in the image. A restored heap must
// answer every query the original answers, before and after more work.
func TestLoadedImageRebuildsDerivedState(t *testing.T) {
	h := buildImageHeap(t)
	unlink(t, h, 5, 0, 6) // a non-zero overwrite counter in partition 1
	if err := h.RecordOracleDead([]objstore.OID{6, 7, 8}); err != nil {
		t.Fatal(err)
	}
	r := twin(t, h)
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
			if externallyReferenced(h, p, oid) != externallyReferenced(r, p, oid) {
				t.Errorf("%s: %v externally referenced = %v, original %v", when, oid,
					externallyReferenced(r, p, oid), externallyReferenced(h, p, oid))
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
	if !bytes.Equal(image(t, h), image(t, r)) {
		t.Error("heaps diverged after identical work")
	}
}

// refusingReclaims is a durable backend whose log refuses every reclaim.
type refusingReclaims struct{ nullBackend }

func (refusingReclaims) LogReclaim([]objstore.OID) error { return errors.New("log full") }

// markedHeader returns a header that carries a collector mark, or nil.
func markedHeader(h *Heap) *objstore.Object {
	var marked *objstore.Object
	h.Store().ForEach(func(o *objstore.Object) {
		if o.Mark != 0 && marked == nil {
			marked = o
		}
	})
	return marked
}

// TestNoMarkOutlivesACollection: Collect tags its partition's members in their
// headers, and every tag is gone when it returns, whether the collection
// succeeded or failed once the members were tagged. A tag left on an object
// the trace did not reach would read as a member of the next collection of
// any partition pointing at it, and pull that foreign object into its copy.
func TestNoMarkOutlivesACollection(t *testing.T) {
	// Oracleless, as a live server runs: 1 -> 2 in partition 0 and 5 -> 6 in
	// partition 1 are live, the other two objects of each are garbage.
	build := func(t *testing.T) *Heap {
		h := testHeap(t)
		h.SetOracleless(true)
		for oid := objstore.OID(1); oid <= 8; oid++ {
			mk(t, h, oid, 100, 2)
		}
		root(t, h, 1)
		root(t, h, 5)
		link(t, h, 1, 0, 2)
		link(t, h, 5, 0, 6)
		if mustPart(t, h, 1) != 0 || mustPart(t, h, 5) != 1 {
			t.Fatal("fixture changed: 1 and 5 are not in partitions 0 and 1")
		}
		return h
	}
	noMarks := func(t *testing.T, h *Heap, when string) {
		t.Helper()
		if o := markedHeader(h); o != nil {
			t.Fatalf("%s: %v carries mark %d", when, o.OID, o.Mark)
		}
	}

	t.Run("collected", func(t *testing.T) {
		h := build(t)
		for _, p := range []storage.PartitionID{0, 1, 0} {
			if _, err := h.Collect(p); err != nil {
				t.Fatalf("collect %d: %v", p, err)
			}
			noMarks(t, h, fmt.Sprintf("after collecting %d", p))
		}
		if err := h.Check(); err != nil {
			t.Fatal(err)
		}
		// The sweep Check makes reads the marks too.
		h.Store().Get(2).Mark = tagged
		if err := h.Check(); err == nil || !strings.Contains(err.Error(), "mark") {
			t.Errorf("Check with a tagged header: %v", err)
		}
	})

	t.Run("compaction refused", func(t *testing.T) {
		h := build(t)
		// 2 is listed in partition 0 but its header claims partition 1:
		// Compact refuses it as a survivor, after the members were tagged
		// and the dead removed.
		h.Store().Get(2).PartPlus1 = 2
		if _, err := h.Collect(0); err == nil || !strings.Contains(err.Error(), "not placed in partition 0") {
			t.Fatalf("collect with a misplaced survivor: %v", err)
		}
		noMarks(t, h, "after the refused compaction")
	})

	t.Run("reclaim not logged", func(t *testing.T) {
		h := build(t)
		h.SetDurable(refusingReclaims{})
		if _, err := h.Collect(0); err == nil || !strings.Contains(err.Error(), "log full") {
			t.Fatalf("collect with a refusing log: %v", err)
		}
		noMarks(t, h, "after the refused log record")
		h.SetDurable(nil)
		// The garbage of partition 0 stays in place, and a client that kept
		// its OID may store it again: 6 in partition 1 now points at 3. A
		// tag left on 3 would pull it into partition 1's copy.
		link(t, h, 6, 1, 3)
		twin := twin(t, h)
		twin.SetOracleless(true) // the image does not carry the mode
		got, err := h.Collect(1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := twin.Collect(1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("collection after the failed one = %+v, twin %+v", got, want)
		}
		if !bytes.Equal(image(t, h), image(t, twin)) {
			t.Fatal("heap and twin diverged after the same collection")
		}
		if err := h.Check(); err != nil {
			t.Fatal(err)
		}
	})
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
