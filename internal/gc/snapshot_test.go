package gc

import (
	"errors"
	"reflect"
	"testing"

	"odbgc/internal/objstore"
)

// buildSnapshotHeap assembles a heap with cross-partition references, oracle
// garbage, and overwrite history — every field the snapshot must carry.
func buildSnapshotHeap(t *testing.T) *Heap {
	t.Helper()
	h := testHeap(t)
	for oid := objstore.OID(1); oid <= 8; oid++ {
		mk(t, h, oid, 100, 2)
	}
	root(t, h, 1)
	link(t, h, 1, 0, 5) // cross-partition: 1 is in p0, 5 in p1
	link(t, h, 1, 1, 2)
	link(t, h, 5, 0, 6)
	link(t, h, 2, 0, 3)
	unlink(t, h, 2, 0, 3) // 3 dead, 3's subtree empty
	link(t, h, 2, 0, 4)   // keep 4 live: partition 0 gets collected in tests
	if err := h.RecordOracleDead([]objstore.OID{3}); err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHeapSnapshotRoundTrip(t *testing.T) {
	h := buildSnapshotHeap(t)
	st := h.Snapshot()
	r, err := RestoreHeap(st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Snapshot(), st) {
		t.Fatalf("snapshot round trip differs:\norig     %+v\nrestored %+v", st, r.Snapshot())
	}

	// Both heaps must behave identically afterwards: collect the partition
	// holding the garbage and compare results and a second snapshot.
	p := mustPart(t, h, 3)
	resOrig, err := h.Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	resRest, err := r.Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resOrig, resRest) {
		t.Fatalf("collections diverged:\norig     %+v\nrestored %+v", resOrig, resRest)
	}
	if !reflect.DeepEqual(h.Snapshot(), r.Snapshot()) {
		t.Fatal("heaps diverged after identical collections")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreHeapRejectsCorruptSnapshot(t *testing.T) {
	h := buildSnapshotHeap(t)
	good := h.Snapshot()

	bad := *good
	bad.Remset = append([]RemsetEntry(nil), good.Remset...)
	if len(bad.Remset) == 0 {
		t.Fatal("test heap has no remset entries")
	}
	bad.Remset[0].Count = -1
	if _, err := RestoreHeap(&bad); err == nil {
		t.Error("negative remset count accepted")
	}

	bad = *good
	bad.Remset = good.Remset[:len(good.Remset)-1]
	if _, err := RestoreHeap(&bad); err == nil {
		t.Error("dropped remset entry accepted (invariant check missed it)")
	}

	bad = *good
	bad.OracleDead = []objstore.OID{999}
	if _, err := RestoreHeap(&bad); err == nil {
		t.Error("oracle-dead entry for absent object accepted")
	}

	bad = *good
	bad.TotalGarbage += 7
	if _, err := RestoreHeap(&bad); err == nil {
		t.Error("ledger mismatch accepted")
	}

	if _, err := RestoreHeap(nil); err == nil {
		t.Error("nil snapshot accepted")
	}
}

// TestCollectRetryHook verifies a retrier installed around the fault injector
// sees the collector's storage operations and that a retried transient fault
// leaves the collection result intact.
func TestCollectRetryHook(t *testing.T) {
	h := buildSnapshotHeap(t)
	ref, err := RestoreHeap(h.Snapshot()) // identical twin collected without faults
	if err != nil {
		t.Fatal(err)
	}

	transient := errors.New("transient")
	remaining := 2 // fail the first two storage ops once each
	var ops []string
	faulty := faultFunc(func(write bool) error {
		if remaining > 0 {
			remaining--
			return transient
		}
		return nil
	})
	h.Disk().SetFaultInjector(faultFunc(func(write bool) error {
		ops = append(ops, map[bool]string{false: "read", true: "write"}[write])
		for {
			err := faulty(write)
			if err == nil {
				return nil
			}
			if !errors.Is(err, transient) {
				return err
			}
		}
	}))

	p := mustPart(t, h, 3)
	res, err := h.Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReclaimedBytes != want.ReclaimedBytes || res.ReclaimedObjects != want.ReclaimedObjects {
		t.Fatalf("faulted collection reclaimed %+v, fault-free twin %+v", res, want)
	}
	if len(ops) == 0 {
		t.Fatal("retry hook never invoked")
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// faultFunc adapts a function to storage.FaultInjector.
type faultFunc func(write bool) error

func (f faultFunc) BeforeOp(write bool) error { return f(write) }
