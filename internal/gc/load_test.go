package gc

import (
	"errors"
	"strings"
	"testing"

	"odbgc/internal/objstore"
	"odbgc/internal/storage"
)

// nullBackend accepts every record and keeps none.
type nullBackend struct{}

func (nullBackend) LogAlloc(objstore.OID, objstore.Class, int, int) error { return nil }
func (nullBackend) LogSet(objstore.OID, int, objstore.OID) error          { return nil }
func (nullBackend) LogRoot(objstore.OID, bool) error                      { return nil }
func (nullBackend) LogReclaim([]objstore.OID) error                       { return nil }
func (nullBackend) Commit() error                                         { return nil }
func (nullBackend) Checkpoint() error                                     { return nil }
func (nullBackend) Close() error                                          { return nil }

func loadOf(objs ...storage.ObjectState) func(func(storage.ObjectState)) {
	return func(fn func(storage.ObjectState)) {
		for _, o := range objs {
			fn(o)
		}
	}
}

// TestLoadFillsAnEmptyHeap is the small case by hand: two partitions' worth of
// objects, one reference across them, one root. (That a load equals the
// mutation path on every kind of state is the server package's differential
// test, which has a durable store to load from.)
func TestLoadFillsAnEmptyHeap(t *testing.T) {
	h := testHeap(t) // 100-byte pages, 400-byte partitions
	err := h.Load(loadOf(
		storage.ObjectState{OID: 1, Size: 100, Slots: []objstore.OID{2, 9, objstore.NilOID}, Root: true},
		storage.ObjectState{OID: 2, Size: 100},
		storage.ObjectState{OID: 4, Size: 100},
		storage.ObjectState{OID: 5, Size: 100},
		storage.ObjectState{OID: 9, Size: 60, Slots: []objstore.OID{9}},
	))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if h.Store().Len() != 5 || h.NumPartitions() != 2 || !h.Store().IsRoot(1) || h.Store().NumRoots() != 1 {
		t.Errorf("loaded %d objects into %d partitions with %d roots", h.Store().Len(), h.NumPartitions(), h.Store().NumRoots())
	}
	if !h.ExternallyReferenced(1, 9) || h.ExternallyReferenced(0, 2) {
		t.Errorf("remembered sets: 9 external %v (want true), 2 external %v (want false)",
			h.ExternallyReferenced(1, 9), h.ExternallyReferenced(0, 2))
	}
	if got := h.Store().NextOID(); got != 10 {
		t.Errorf("next OID %v, want oid:10", got)
	}
	// The loaded heap is a working one: unlinking 9 makes it collectable.
	if err := h.Overwrite(1, 1, 9, objstore.NilOID, false); err != nil {
		t.Fatal(err)
	}
	h.SetOracleless(true)
	res, err := h.Collect(1)
	if err != nil || res.ReclaimedObjects != 1 {
		t.Errorf("collect after load: %+v, %v; want object 9 reclaimed", res, err)
	}
}

// TestLoadRefusesAtTheEdge: a load is for an empty heap that logs nowhere,
// given objects in the order the layers below index them by.
func TestLoadRefusesAtTheEdge(t *testing.T) {
	one := storage.ObjectState{OID: 1, Size: 10}
	for _, tc := range []struct {
		name    string
		prepare func(*Heap)
		objs    []storage.ObjectState
		want    string
	}{
		{"a heap that holds objects", func(h *Heap) { _ = h.Create(7, objstore.ClassManual, 10, 0) }, nil, "already holds"},
		{"a heap with a backend attached", func(h *Heap) { h.SetDurable(nullBackend{}) }, []storage.ObjectState{one}, "backend attached"},
		{"a storage manager that was used and emptied", func(h *Heap) {
			_ = h.Create(7, objstore.ClassManual, 10, 0)
			h.SetOracleless(true)
			_, _ = h.Collect(0)
		}, []storage.ObjectState{one}, "already holds"},
		{"OIDs that descend", func(*Heap) {}, []storage.ObjectState{{OID: 3, Size: 10}, {OID: 2, Size: 10}}, "must ascend"},
		{"an OID given twice", func(*Heap) {}, []storage.ObjectState{one, one}, "must ascend"},
	} {
		h := testHeap(t)
		tc.prepare(h)
		err := h.Load(loadOf(tc.objs...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("load into %s: %v, want a refusal saying %q", tc.name, err, tc.want)
		}
	}
}

// TestLoadRefusalsAreTheSinglePassOnes pins the text of every refusal Load
// makes: it asks the object store and then the storage manager about each
// object in turn and stops at the first object either refuses, the store's
// word first. A Load that fills the two some other way has to return these.
func TestLoadRefusalsAreTheSinglePassOnes(t *testing.T) {
	obj := func(oid objstore.OID, slots ...objstore.OID) storage.ObjectState {
		return storage.ObjectState{OID: oid, Size: 10, Slots: slots}
	}
	for _, tc := range []struct {
		name      string
		failPlace int // the placement to fail, 0 for none
		objs      []storage.ObjectState
		want      string
	}{
		{"OIDs that descend", 0, []storage.ObjectState{obj(3), obj(2)},
			"gc: load of oid:2 after oid:3: OIDs must ascend"},
		{"an OID given twice", 0, []storage.ObjectState{obj(1), obj(2), obj(2)},
			"gc: load of oid:2 after oid:2: OIDs must ascend"},
		{"a nil OID", 0, []storage.ObjectState{obj(0)},
			"gc: load nil: objstore: cannot create object with nil OID"},
		{"an OID beyond the horizon", 0, []storage.ObjectState{obj(1), obj(2 + objstore.MaxOIDGap)},
			"gc: load oid:1048578: objstore: OID beyond the allocation horizon: oid:1048578 with next OID oid:2"},
		{"a placement fault", 3, []storage.ObjectState{obj(1), obj(2), obj(3), obj(4)},
			"gc: load oid:3: storage: allocate oid:3: injected placement fault"},
		{"a placement fault before a descending OID", 2, []storage.ObjectState{obj(1), obj(2), obj(5), obj(4)},
			"gc: load oid:2: storage: allocate oid:2: injected placement fault"},
		{"a placement fault after a descending OID", 4, []storage.ObjectState{obj(1), obj(5), obj(4), obj(6)},
			"gc: load of oid:4 after oid:5: OIDs must ascend"},
		{"a placement fault on an object the store refuses too", 2, []storage.ObjectState{obj(1), {OID: 2, Size: -1}},
			"gc: load oid:2: objstore: invalid size -1 or slot count 0"},
		{"a dangling slot target", 0, []storage.ObjectState{obj(1, 2, 7), obj(2)},
			"gc: load oid:1: slot target oid:7 does not exist"},
	} {
		h := testHeap(t)
		if tc.failPlace > 0 {
			ops := 0
			h.disk.SetFaultInjector(faultFunc(func(bool) error {
				if ops++; ops == tc.failPlace {
					return errors.New("injected placement fault")
				}
				return nil
			}))
		}
		err := h.Load(loadOf(tc.objs...))
		if err == nil || err.Error() != tc.want {
			t.Errorf("load of %s:\n got %v\nwant %s", tc.name, err, tc.want)
		}
	}
}
