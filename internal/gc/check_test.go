package gc

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"odbgc/internal/objstore"
	"odbgc/internal/storage"
)

// referenceCheck is Check as it was before it became one trace and one
// sweep, kept as the reference the differential tests hold it to: the
// manager's placement sweep and a lookup per listed member, a walk of the
// graph recounting the remembered references, a two-way comparison of the
// counts, Store.Reachable, a walk of the oracle's dead flags and a count for
// completeness.
func referenceCheck(h *Heap) error {
	if err := referenceManagerCheck(h.store, h.disk); err != nil {
		return err
	}
	var err error
	h.store.ForEach(func(o *objstore.Object) { // the old sweep's mark check, then in externalRefs
		if o.Mark != 0 && err == nil {
			err = fmt.Errorf("gc: object %v carries collector mark %d outside a collection", o.OID, o.Mark)
		}
	})
	if err != nil {
		return err
	}
	live := h.store.Reachable()
	var want objstore.Table[int32]
	if err := h.externalRefs(func(_ storage.PartitionID, dst, _ objstore.OID) {
		want.Set(dst, want.Get(dst)+1)
	}); err != nil {
		return err
	}
	mismatch := func(dst objstore.OID, _ int32) {
		if err == nil && h.ext.Get(dst) != want.Get(dst) {
			err = fmt.Errorf("gc: %v remembers %d external references, ground truth %d", dst, h.ext.Get(dst), want.Get(dst))
		}
	}
	want.ForEach(mismatch)
	h.ext.ForEach(mismatch)
	if err != nil {
		return err
	}
	poSum := 0
	for _, n := range h.po {
		poSum += n
	}
	if poSum != h.poTotal {
		return fmt.Errorf("gc: overwrite total %d but partition counters sum to %d", h.poTotal, poSum)
	}
	deadBytes := make([]int, h.disk.NumPartitions())
	flagged := 0
	h.store.ForEach(func(o *objstore.Object) {
		if !o.Dead {
			return
		}
		flagged++
		p, placed := storage.PartOf(o)
		switch {
		case err != nil || !placed: // externalRefs refused an unplaced object
		case live.Get(o.OID):
			err = fmt.Errorf("gc: oracle-dead object %v is reachable", o.OID)
		default:
			deadBytes[p] += int(o.Size)
		}
	})
	if err != nil {
		return err
	}
	if flagged != h.oracleDead {
		return fmt.Errorf("gc: oracle counts %d dead objects but %d headers are flagged dead", h.oracleDead, flagged)
	}
	sum := 0
	for p, want := range deadBytes {
		if got := counter(h.oracleDeadBytes, storage.PartitionID(p)); got != want {
			return fmt.Errorf("gc: oracle garbage bytes %d in partition %d disagree with dead set total %d", got, p, want)
		}
		sum += want
	}
	if sum != h.garbage || h.totalGarbage-h.totalCollected != uint64(sum) {
		return fmt.Errorf("gc: garbage total %d, created %d - collected %d, partitions sum to %d",
			h.garbage, h.totalGarbage, h.totalCollected, sum)
	}
	if dead := h.store.Len() - live.Len(); !h.oracleless && dead != h.oracleDead {
		return fmt.Errorf("gc: %d unreachable objects but oracle knows %d", dead, h.oracleDead)
	}
	return nil
}

// referenceManagerCheck is the manager's CheckInvariants as it was: a pass
// over the store for the placements, then per partition its used bytes, the
// order of its member list and a placement lookup per member. What no method
// of the manager exports it reads with managerField.
func referenceManagerCheck(st *objstore.Store, m *storage.Manager) error {
	cfg := m.Config()
	perPart := make([]int, m.NumPartitions())
	placed := 0
	var err error
	st.ForEach(func(o *objstore.Object) {
		if err != nil || o.PartPlus1 == 0 {
			return
		}
		pl, _ := m.PlacementOf(o.OID)
		switch {
		case int(pl.Part) < 0 || int(pl.Part) >= len(perPart):
			err = fmt.Errorf("storage: %v placed in unknown partition %d", o.OID, pl.Part)
		case pl.Size <= 0 || pl.Offset < 0 || pl.Offset > cfg.PartitionBytes()-pl.Size:
			err = fmt.Errorf("storage: %v placement out of range: %+v", o.OID, pl)
		case pl.Offset%cfg.PageSize+pl.Size > cfg.PageSize:
			err = fmt.Errorf("storage: %v spans a page boundary: %+v", o.OID, pl)
		default:
			perPart[pl.Part] += pl.Size
			placed++
		}
	})
	if err != nil {
		return err
	}
	listed, total := 0, 0
	for p := range perPart {
		id := storage.PartitionID(p)
		if used := int(managerField(m, p, "used").Int()); used != perPart[p] {
			return fmt.Errorf("storage: partition %d used=%d but placements sum to %d", p, used, perPart[p])
		}
		members, err := m.AppendMembers(nil, id)
		if err != nil {
			return err
		}
		for i, o := range members {
			if i > 0 && members[i-1].OID >= o.OID {
				return fmt.Errorf("storage: partition %d lists %v out of order", p, o.OID)
			}
			if q, ok := storage.PartOf(o); !ok || q != id {
				return fmt.Errorf("storage: partition %d lists %v but it is placed in %d", p, o.OID, q)
			}
		}
		if cursor := int(managerField(m, p, "cursor").Int()); cursor < 0 || cursor > cfg.PartitionBytes() {
			return fmt.Errorf("storage: partition %d cursor %d out of range", p, cursor)
		}
		listed += len(members)
		total += perPart[p]
	}
	if listed != placed {
		return fmt.Errorf("storage: %d placements but the partitions list %d objects", placed, listed)
	}
	if total != m.OccupiedBytes() {
		return fmt.Errorf("storage: occupied total %d but partitions sum to %d", m.OccupiedBytes(), total)
	}
	return nil
}

// agree runs Check and the reference on h: both must accept or both refuse,
// and Check must leave no mark behind. It returns Check's verdict.
func agree(t *testing.T, h *Heap, when string) error {
	t.Helper()
	ref := referenceCheck(h) // first: Check clears the marks the reference must see
	err := h.Check()
	if (err == nil) != (ref == nil) {
		t.Fatalf("%s: Check says %v, the reference %v", when, err, ref)
	}
	if o := markedHeader(h); o != nil {
		t.Fatalf("%s: Check (%v) left mark %d on %v", when, err, o.Mark, o.OID)
	}
	return err
}

// managerField returns a settable view of an unexported field of a
// partition of m (part >= 0) or of m itself, to plant a fault no method of
// the manager can make.
func managerField(m *storage.Manager, part int, name string) reflect.Value {
	v := reflect.ValueOf(m).Elem()
	if part >= 0 {
		v = v.FieldByName("parts").Index(part).Elem()
	}
	f := v.FieldByName(name)
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}

// TestCheckCatchesEveryCorruption plants one fault at a time in a consistent
// heap and requires Check, and the reference it replaced, to refuse it with
// the error naming it. Whatever Check finds, no header keeps a mark.
func TestCheckCatchesEveryCorruption(t *testing.T) {
	// buildImageHeap, with garbage in partition 1 too: 1 (root) -> 2 -> 4
	// and 1 -> 5 -> 6 across partitions 0 and 1; 3, 7 and 8 are dead and
	// known to the oracle.
	build := func(t *testing.T) *Heap {
		h := buildImageHeap(t)
		if err := h.RecordOracleDead([]objstore.OID{7, 8}); err != nil {
			t.Fatal(err)
		}
		link(t, h, 7, 0, 2) // a dead object's reference across partitions
		if mustPart(t, h, 1) != 0 || mustPart(t, h, 5) != 1 || mustPart(t, h, 7) != 1 {
			t.Fatal("fixture changed: 1, 5 and 7 are not in partitions 0, 1 and 1")
		}
		if err := agree(t, h, "fixture"); err != nil {
			t.Fatal(err)
		}
		return h
	}
	for _, tc := range []struct {
		name  string
		plant func(t *testing.T, h *Heap)
		want  string
	}{
		{"dangling slot", func(t *testing.T, h *Heap) { h.store.Get(4).Slots[0] = 99 }, "references unplaced oid:99"},
		{"dangling slot of a dead object", func(t *testing.T, h *Heap) { h.store.Get(3).Slots[1] = 99 }, "references unplaced oid:99"},
		{"unplaced object", func(t *testing.T, h *Heap) {
			if _, err := h.store.CreateWithOID(9, objstore.ClassAtomicPart, 100, 0); err != nil {
				t.Fatal(err)
			}
		}, "object oid:9 in store but not placed"},
		{"reference to an unplaced object", func(t *testing.T, h *Heap) {
			if _, err := h.store.CreateWithOID(9, objstore.ClassAtomicPart, 100, 0); err != nil {
				t.Fatal(err)
			}
			h.store.Get(4).Slots[1] = 9
		}, "object oid:4 references unplaced oid:9"},
		{"collector tag on a live header", func(t *testing.T, h *Heap) { h.store.Get(6).Mark = tagged }, "oid:6 carries collector mark 1"},
		{"collector tag on a dead header", func(t *testing.T, h *Heap) { h.store.Get(8).Mark = reached }, "oid:8 carries collector mark 2"},
		{"remembered count too high", func(t *testing.T, h *Heap) { h.ext.Set(5, 2) }, "remembers 2 external references to oid:5, ground truth 1"},
		{"remembered count too low", func(t *testing.T, h *Heap) { h.ext.Set(2, 0) }, "remembers 0 external references to oid:2, ground truth 1"},
		{"remembered count without a reference", func(t *testing.T, h *Heap) { h.ext.Set(6, 1) }, "remembers 1 external references to oid:6, ground truth 0"},
		{"reachable oracle-dead object", func(t *testing.T, h *Heap) { h.store.Get(4).Dead = true; h.oracleDead++ }, "oracle-dead object oid:4 is reachable"},
		{"oracle-dead count drift", func(t *testing.T, h *Heap) { h.oracleDead++ }, "oracle counts 4 dead objects but 3 headers are flagged dead"},
		{"partition dead bytes drift", func(t *testing.T, h *Heap) { h.oracleDeadBytes[0] += 100; h.oracleDeadBytes[1] -= 100 }, "oracle garbage bytes 200 in partition 0"},
		{"untracked unreachable object", func(t *testing.T, h *Heap) { unlink(t, h, 2, 0, 4) }, "4 unreachable objects but oracle knows 3 (e.g. oid:4)"},
		{"member list missing an entry", func(t *testing.T, h *Heap) {
			objects := managerField(h.disk, 1, "objects")
			objects.Set(objects.Slice(1, objects.Len()))
		}, "placements but the partitions list"},
		{"member list out of order", func(t *testing.T, h *Heap) {
			objects := managerField(h.disk, 1, "objects").Interface().([]objstore.OID)
			objects[1], objects[2] = objects[2], objects[1]
		}, "partition 1 lists oid:6 out of order"},
		{"used drift", func(t *testing.T, h *Heap) {
			used := managerField(h.disk, 0, "used")
			used.SetInt(used.Int() + 1)
		}, "partition 0 used=401"},
		{"occupied drift", func(t *testing.T, h *Heap) {
			occupied := managerField(h.disk, -1, "occupied")
			occupied.SetInt(occupied.Int() - 1)
		}, "occupied total"},
		{"misplaced header", func(t *testing.T, h *Heap) { h.store.Get(4).Offset = 350 }, "oid:4 placement out of range"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := build(t)
			tc.plant(t, h)
			if err := agree(t, h, "after planting"); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Check said %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

// TestCheckOracleCompleteNamesTheUntrackedObject: the completeness error's
// example used to be the last unreachable object in the store, usually one
// the oracle knew, so it pointed away from the fault. It names the first
// object whose reachability the oracle has wrong.
func TestCheckOracleCompleteNamesTheUntrackedObject(t *testing.T) {
	h := testHeap(t)
	for oid := objstore.OID(1); oid <= 5; oid++ {
		mk(t, h, oid, 100, 1)
	}
	root(t, h, 1)
	link(t, h, 1, 0, 2)
	// 3, 4 and 5 are unreachable; the oracle knows 4 and 5, not 3.
	if err := h.RecordOracleDead([]objstore.OID{4, 5}); err != nil {
		t.Fatal(err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	err := h.CheckOracleComplete()
	if err == nil || !strings.HasSuffix(err.Error(), "(e.g. oid:3)") {
		t.Errorf("completeness check said %v, want it to name oid:3", err)
	}
}
