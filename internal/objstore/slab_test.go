package objstore

import (
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// modelObject is one object of the plain-map store the recycling Store is
// checked against.
type modelObject struct {
	class Class
	size  int
	slots []OID
}

// churnSlotCounts mixes every kind of shape the free lists tell apart: no
// slots, the generators' common ones, the widest pooled count and two beyond
// it, which take the plain-allocation path and share one header list.
var churnSlotCounts = []int{0, 0, 1, 2, 3, 3, 8, 21, pooledSlots, pooledSlots + 1, pooledSlots + 9}

// TestStoreMatchesModelUnderChurn drives a seeded random mix of create,
// SetSlot, AddRoot/RemoveRoot and Remove through a Store and a map model, and
// after every batch checks that the two agree object by object, that no two
// live objects share slot memory, and that a snapshot round trip is exact.
func TestStoreMatchesModelUnderChurn(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewStore()
		model := map[OID]*modelObject{}
		roots := map[OID]bool{}
		var live []OID              // model keys, for picking a random live object
		freed := map[*Object]bool{} // headers handed back by Remove
		recycled, wideRecycled := 0, 0
		pick := func() OID { return live[rng.Intn(len(live))] }

		for batch := 0; batch < 60; batch++ {
			// The mix grows the store for the first third of the run, then
			// holds it, then shrinks it, so the free lists fill and drain.
			createWeight := []int{6, 3, 1}[batch/20]
			for step := 0; step < 200; step++ {
				switch op := rng.Intn(10); {
				case op < createWeight || len(live) == 0:
					nslots := churnSlotCounts[rng.Intn(len(churnSlotCounts))]
					class, size := Class(rng.Intn(8)), rng.Intn(300)
					o, err := s.Create(class, size, nslots)
					if err != nil {
						t.Fatal(err)
					}
					if freed[o] {
						delete(freed, o)
						recycled++
						if nslots > pooledSlots {
							wideRecycled++
						}
					}
					// Fresh or recycled, the object carries nothing of a
					// previous life.
					if o.Class != class || int(o.Size) != size || len(o.Slots) != nslots {
						t.Fatalf("seed %d: create(%v, %d, %d) returned %+v", seed, class, size, nslots, *o)
					}
					for i, v := range o.Slots {
						if v != NilOID {
							t.Fatalf("seed %d: new object %v slot %d = %v, want nil", seed, o.OID, i, v)
						}
					}
					model[o.OID] = &modelObject{class, size, make([]OID, nslots)}
					live = append(live, o.OID)
				case op < 7:
					src := pick()
					if m := model[src]; len(m.slots) > 0 {
						i, dst := rng.Intn(len(m.slots)), pick()
						old, err := s.SetSlot(src, i, dst)
						if err != nil || old != m.slots[i] {
							t.Fatalf("seed %d: SetSlot(%v, %d, %v) = %v, %v; model had %v", seed, src, i, dst, old, err, m.slots[i])
						}
						m.slots[i] = dst
					}
				case op < 8:
					oid := pick()
					if roots[oid] {
						s.RemoveRoot(oid)
						delete(roots, oid)
					} else if err := s.AddRoot(oid); err != nil {
						t.Fatal(err)
					} else {
						roots[oid] = true
					}
				default:
					i := rng.Intn(len(live))
					oid := live[i]
					o := s.Get(oid)
					if err := s.Remove(oid); err != nil {
						t.Fatal(err)
					}
					freed[o] = true
					delete(model, oid)
					delete(roots, oid)
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					// Pointers to the removed object dangle in the Store; the
					// model keeps them too, so the two still agree.
				}
			}
			checkAgainstModel(t, s, model, roots)
		}
		if recycled == 0 || wideRecycled == 0 {
			t.Errorf("seed %d: %d headers recycled, %d of them wide: the churn never reached the free lists", seed, recycled, wideRecycled)
		}
		// Recovery loads a store object by object under the horizon: the
		// copy must hold what the model holds too.
		r := NewStore()
		r.AdvanceNextOID(s.NextOID())
		s.ForEach(func(o *Object) {
			c, err := r.CreateWithOID(o.OID, o.Class, int(o.Size), len(o.Slots))
			if err == nil && o.Root {
				err = r.AddRoot(o.OID)
			}
			if err != nil {
				t.Fatal(err)
			}
			copy(c.Slots, o.Slots)
		})
		checkAgainstModel(t, r, model, roots)
	}
}

// checkAgainstModel compares every object, the totals and the root set, then
// proves the slot arrays disjoint: it writes a distinct sentinel through
// every slot of every object, reads them all back, and restores the slots.
func checkAgainstModel(t *testing.T, s *Store, model map[OID]*modelObject, roots map[OID]bool) {
	t.Helper()
	bytes := 0
	for oid, m := range model {
		o := s.Get(oid)
		if o == nil {
			t.Fatalf("object %v missing from the store", oid)
		}
		if o.OID != oid || o.Class != m.class || int(o.Size) != m.size || !slices.Equal(o.Slots, m.slots) {
			t.Fatalf("object %v = %+v, model has %+v", oid, *o, *m)
		}
		if s.IsRoot(oid) != roots[oid] {
			t.Fatalf("object %v: IsRoot = %v, model says %v", oid, s.IsRoot(oid), roots[oid])
		}
		bytes += m.size
	}
	if s.Len() != len(model) || s.totalBytes != bytes || s.NumRoots() != len(roots) {
		t.Fatalf("Len/TotalBytes/NumRoots = %d/%d/%d, model has %d/%d/%d",
			s.Len(), s.totalBytes, s.NumRoots(), len(model), bytes, len(roots))
	}
	seen := 0
	var last OID
	s.ForEach(func(o *Object) {
		if o.OID <= last || model[o.OID] == nil || o.Root != roots[o.OID] {
			t.Fatalf("ForEach gave %v (root %v) after %v; model has it %v, root %v", o.OID, o.Root, last, model[o.OID] != nil, roots[o.OID])
		}
		last = o.OID
		seen++
	})
	if seen != len(model) {
		t.Fatalf("ForEach visited %d objects, model has %d", seen, len(model))
	}

	sentinel := func(oid OID, i int) OID { return oid<<8 | OID(i) | 1<<60 }
	for oid := range model {
		for i := range s.Get(oid).Slots {
			s.Get(oid).Slots[i] = sentinel(oid, i)
		}
	}
	for oid, m := range model {
		o := s.Get(oid)
		for i, v := range o.Slots {
			if v != sentinel(oid, i) {
				t.Fatalf("object %v slot %d was overwritten through another object's slots", oid, i)
			}
		}
		copy(o.Slots, m.slots)
	}
}

// TestCreateRejectsDamagedSlotCount: a slot count only damage produces is
// refused with ErrSlotRange instead of sizing an allocation (2^50 used to
// panic in makeslice, 2^30 to ask for 8 GB); the bound itself is accepted.
func TestCreateRejectsDamagedSlotCount(t *testing.T) {
	s := NewStore()
	for _, nslots := range []int{MaxSlots + 1, 1 << 30, 1 << 50} {
		if _, err := s.CreateWithOID(1, ClassUnknown, 10, nslots); !errors.Is(err, ErrSlotRange) {
			t.Errorf("CreateWithOID with %d slots = %v, want ErrSlotRange", nslots, err)
		}
	}
	if s.Len() != 0 || s.NextOID() != 1 {
		t.Errorf("refused creates left Len %d, NextOID %v", s.Len(), s.NextOID())
	}
	if o, err := s.CreateWithOID(1, ClassUnknown, 10, MaxSlots); err != nil || len(o.Slots) != MaxSlots {
		t.Errorf("CreateWithOID with MaxSlots slots: %v", err)
	}
}

// churnStore returns a store warmed to n three-slot objects and a step that
// removes the oldest object and creates a new one: the constant-population
// pattern of the serving workloads and of a collector keeping pace. The
// oldest goes first so that the Table's emptied chunks are reused too, and
// what is left to count is the object memory alone.
func churnStore(tb testing.TB, n int) (*Store, func()) {
	s := NewStore()
	for i := 0; i < n; i++ {
		if _, err := s.Create(ClassAtomicPart, 100, 3); err != nil {
			tb.Fatal(err)
		}
	}
	oldest := OID(1)
	return s, func() {
		if err := s.Remove(oldest); err != nil {
			tb.Fatal(err)
		}
		oldest++
		if _, err := s.Create(ClassAtomicPart, 100, 3); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestChurnAllocatesNothing: at constant population every create is served
// from the free list its predecessor's removal filled.
func TestChurnAllocatesNothing(t *testing.T) {
	_, step := churnStore(t, 2000)
	// The Table's directory doubles as OIDs climb; the warm-up leaves the
	// next doubling (at OID 16 384) beyond the measured steps.
	for i := 0; i < 7000; i++ {
		step()
	}
	if n := testing.AllocsPerRun(2000, step); n != 0 {
		t.Errorf("%v allocations per remove+create, want 0", n)
	}
}

// TestFreshCreatesAllocateBySlab: growing a store costs a slab per 1365
// headers and per 8192 slots (plus the Table's chunks), not the two
// allocations per object it cost before: at most 1 % of that.
func TestFreshCreatesAllocateBySlab(t *testing.T) {
	const n = 10_000
	allocs := testing.AllocsPerRun(3, func() {
		s := NewStore()
		for i := 0; i < n; i++ {
			if _, err := s.Create(ClassAtomicPart, 100, 3); err != nil {
				t.Fatal(err)
			}
		}
	})
	if limit := 0.01 * 2 * n; allocs > limit {
		t.Errorf("%v allocations for %d creates, want at most %v", allocs, n, limit)
	}
}

// TestHeapBytesPerObject pins what a slab that misses its size class would
// move: Go heap per object, after two forced collections, for the restart
// workload's shape and for OO7's. The limits are the measurements of the
// one-allocation-per-object store this one replaced (64.2 and 81.1 bytes)
// plus 1 %; 256 headers to a slab, which round up to the 13 568-byte class,
// read 5 bytes over.
func TestHeapBytesPerObject(t *testing.T) {
	const n = 200_000
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for _, tc := range []struct {
		name   string
		slots  func(i int) int
		parent float64
	}{
		{"restart: an 8-slot hub and eight slotless leaves", func(i int) int {
			if i%9 == 0 {
				return 8
			}
			return 0
		}, 64.2},
		{"oo7: three slots", func(int) int { return 3 }, 81.1},
	} {
		before := heap()
		s := NewStore()
		for i := 0; i < n; i++ {
			if _, err := s.Create(ClassAtomicPart, 100, tc.slots(i)); err != nil {
				t.Fatal(err)
			}
		}
		got := float64(heap()-before) / n
		runtime.KeepAlive(s)
		if limit := tc.parent * 1.01; got > limit {
			t.Errorf("%s: %.1f heap bytes per object, want at most %.1f", tc.name, got, limit)
		} else {
			t.Logf("%s: %.1f heap bytes per object (limit %.1f)", tc.name, got, limit)
		}
	}
}

// TestSlotlessObjectsCarryNoSlotPointer: an object without slots has a nil
// slot slice however it was made — carved fresh or recycled from the free
// list — so its header gives the runtime's collector no pointer into the slot
// slab to resolve.
func TestSlotlessObjectsCarryNoSlotPointer(t *testing.T) {
	s := NewStore()
	_, err := s.Create(ClassAssembly, 200, 8) // leaves the slot slab non-empty
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := s.Create(ClassAtomicPart, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Slots != nil {
		t.Errorf("fresh slotless object has slots %v (cap %d), want nil", fresh.Slots, cap(fresh.Slots))
	}
	if err := s.Remove(fresh.OID); err != nil {
		t.Fatal(err)
	}
	recycled, err := s.Create(ClassAtomicPart, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if recycled != fresh {
		t.Fatal("the second slotless create did not recycle the first one's header")
	}
	if recycled.Slots != nil {
		t.Errorf("recycled slotless object has slots %v (cap %d), want nil", recycled.Slots, cap(recycled.Slots))
	}
}
