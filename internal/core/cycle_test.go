package core

import (
	"reflect"
	"testing"

	"odbgc/internal/gc"
	"odbgc/internal/objstore"
	"odbgc/internal/storage"
)

// cycleScript is the selection policy, yield observer, rate policy,
// diagnostics and after-collect hook of one Cycle, all appending to a single
// call log so a test can pin the order the Cycle calls them in.
type cycleScript struct {
	heap *gc.Heap
	log  []string

	part storage.PartitionID // what Select answers
	ok   bool

	collectionsAtSelect uint64 // heap.Collections() seen by each seam
	collectionsAtHook   uint64
	afterNow            Clock
	afterRes            gc.CollectionResult
	yieldRes            gc.CollectionResult
}

func (s *cycleScript) Name() string { return "scripted" }

func (s *cycleScript) Select(h *gc.Heap) (storage.PartitionID, bool) {
	s.log = append(s.log, "select")
	s.collectionsAtSelect = h.Collections()
	return s.part, s.ok
}

func (s *cycleScript) ObserveCollection(res gc.CollectionResult) {
	s.log = append(s.log, "observe")
	s.yieldRes = res
}

func (s *cycleScript) hook() {
	s.log = append(s.log, "hook")
	s.collectionsAtHook = s.heap.Collections()
}

func (s *cycleScript) ShouldCollect(Clock) bool { return true }

func (s *cycleScript) AfterCollection(now Clock, _ HeapState, res gc.CollectionResult) {
	s.log = append(s.log, "after")
	s.afterNow, s.afterRes = now, res
}

func (s *cycleScript) LastEstimate() float64 { s.log = append(s.log, "diag"); return 30 }
func (s *cycleScript) LastTarget() float64   { s.log = append(s.log, "diag"); return 60 }
func (s *cycleScript) LastInterval() uint64  { s.log = append(s.log, "diag"); return 7 }

// scriptedCycle builds a Cycle over a one-partition heap holding a root, one
// object it references and one object made garbage by two overwrites.
func scriptedCycle(t *testing.T) (*Cycle, *cycleScript) {
	t.Helper()
	disk, err := storage.NewManager(storage.Config{PageSize: 100, PagesPerPartition: 4, BufferPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	h := gc.NewHeap(objstore.NewStore(), disk)
	for i, slots := range []int{1, 0, 0} {
		if err := h.Create(objstore.OID(i+1), objstore.ClassAtomicPart, 100, slots); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.AddRoot(1); err != nil {
		t.Fatal(err)
	}
	for _, ow := range []struct{ old, dst objstore.OID }{{objstore.NilOID, 3}, {3, 2}} {
		if err := h.Overwrite(1, 0, ow.old, ow.dst, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.RecordOracleDead([]objstore.OID{3}); err != nil {
		t.Fatal(err)
	}
	s := &cycleScript{heap: h, ok: true}
	return &Cycle{Heap: h, Policy: s, Selection: s, AfterCollect: s.hook}, s
}

func TestCycleCallOrder(t *testing.T) {
	c, s := scriptedCycle(t)
	before := c.Clock()
	rec, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The diagnostics are read only once AfterCollection has returned, and
	// nothing else runs between Select and AfterCollection.
	want := []string{"select", "hook", "observe", "after", "diag", "diag", "diag"}
	if !reflect.DeepEqual(s.log, want) {
		t.Fatalf("call order %v, want %v", s.log, want)
	}
	if s.collectionsAtSelect != 0 || s.collectionsAtHook != 1 {
		t.Errorf("Heap.Collect ran outside Select..hook: %d collections at Select, %d at the hook",
			s.collectionsAtSelect, s.collectionsAtHook)
	}
	if !rec.Collected || rec.Index != 1 || rec.Result.ReclaimedBytes != 100 {
		t.Errorf("record %+v: want collection 1 reclaiming 100 bytes", rec)
	}
	if s.yieldRes != rec.Result || s.afterRes != rec.Result {
		t.Errorf("yield observer saw %+v and policy %+v, record has %+v", s.yieldRes, s.afterRes, rec.Result)
	}
	if rec.Before != before || rec.After != s.afterNow || rec.After != c.Clock() {
		t.Errorf("clocks before %+v after %+v; want %+v and the policy's %+v", rec.Before, rec.After, before, s.afterNow)
	}
	if rec.After.GCIO <= rec.Before.GCIO || rec.CumulativeIO != c.Heap.Disk().Stats() {
		t.Errorf("collection I/O missing from the record: %+v", rec)
	}
	if rec.Interval != 2 || c.LastOverwrites != 2 {
		t.Errorf("interval %d, next base %d; want both 2 (the overwrite clock)", rec.Interval, c.LastOverwrites)
	}
	if rec.DatabaseBytes != 200 || rec.GarbageBytes != 0 {
		t.Errorf("post-collection state %d bytes, %d garbage; want 200, 0", rec.DatabaseBytes, rec.GarbageBytes)
	}
	if rec.Estimate != 30 || rec.Target != 60 || rec.NextInterval != 7 ||
		rec.EstimatedFrac() != 0.15 || rec.TargetFrac() != 0.3 {
		t.Errorf("diagnostics %+v", rec)
	}

	// The next record's interval counts from this collection.
	if err := c.Heap.Overwrite(1, 0, 2, objstore.NilOID, false); err != nil {
		t.Fatal(err)
	}
	if err := c.Heap.RecordOracleDead([]objstore.OID{2}); err != nil {
		t.Fatal(err)
	}
	if rec, err = c.Run(); err != nil || rec.Index != 2 || rec.Interval != 1 {
		t.Errorf("second collection %+v, %v; want index 2, interval 1", rec, err)
	}
}

func TestCycleEmptySelection(t *testing.T) {
	c, s := scriptedCycle(t)
	s.ok = false
	rec, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"select", "after", "diag", "diag", "diag"}
	if !reflect.DeepEqual(s.log, want) {
		t.Fatalf("call order %v, want %v", s.log, want)
	}
	if s.afterRes != (gc.CollectionResult{}) || s.afterNow != c.Clock() {
		t.Errorf("policy rescheduled off %+v at %+v; want a zero result at the current clock", s.afterRes, s.afterNow)
	}
	if rec.Collected || rec.Index != 0 || rec.Before != rec.After || c.Heap.Collections() != 0 {
		t.Errorf("record %+v after an empty selection", rec)
	}
	if rec.DatabaseBytes != 300 || rec.GarbageBytes != 100 || rec.NextInterval != 7 {
		t.Errorf("record %+v: want the heap's state and the policy's diagnostics", rec)
	}
}

func TestCycleCollectError(t *testing.T) {
	c, s := scriptedCycle(t)
	s.part = 99 // no such partition: Heap.Collect refuses
	rec, err := c.Run()
	if err == nil {
		t.Fatal("collecting an unknown partition succeeded")
	}
	if want := []string{"select"}; !reflect.DeepEqual(s.log, want) {
		t.Errorf("calls after a failed Collect: %v, want %v", s.log, want)
	}
	if rec != (Collection{}) || c.LastOverwrites != 0 {
		t.Errorf("failed turn left record %+v, interval base %d", rec, c.LastOverwrites)
	}
}
