package gc

import (
	"errors"
	"runtime"
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

// storeOf enters objs into a fresh object store, as recovery would.
func storeOf(t *testing.T, objs ...storage.ObjectState) *objstore.Store {
	t.Helper()
	st := objstore.NewStore()
	for _, o := range objs {
		enter(t, st, o)
	}
	return st
}

// enter creates o in st whole: header, slots and root flag.
func enter(t *testing.T, st *objstore.Store, o storage.ObjectState) {
	t.Helper()
	obj, err := st.CreateWithOID(o.OID, o.Class, o.Size, len(o.Slots))
	if err == nil && o.Root {
		err = st.AddRoot(o.OID)
	}
	if err != nil {
		t.Fatal(err)
	}
	copy(obj.Slots, o.Slots)
}

// TestLoadFillsAnEmptyHeap is the small case by hand: two partitions' worth of
// objects, one reference across them, one root. (That a load equals the
// mutation path on every kind of state is the server package's differential
// test, which has a durable store to load from.)
func TestLoadFillsAnEmptyHeap(t *testing.T) {
	h := testHeap(t) // 100-byte pages, 400-byte partitions
	err := h.Load(storeOf(t,
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
	if !externallyReferenced(h, 1, 9) || externallyReferenced(h, 0, 2) {
		t.Errorf("remembered sets: 9 external %v (want true), 2 external %v (want false)",
			externallyReferenced(h, 1, 9), externallyReferenced(h, 0, 2))
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

// TestLoadRefusesAtTheEdge: a load is for an empty heap that logs nowhere.
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
	} {
		h := testHeap(t)
		tc.prepare(h)
		err := h.Load(storeOf(t, tc.objs...))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("load into %s: %v, want a refusal saying %q", tc.name, err, tc.want)
		}
	}
}

// TestLoadRefusalsAreTheSinglePassOnes pins the text of every refusal Load
// makes: it places the objects in OID order and stops at the first one the
// storage manager refuses, then refuses the first dangling slot target. What
// the object store refuses (a nil, duplicate or far OID) never reaches it.
func TestLoadRefusalsAreTheSinglePassOnes(t *testing.T) {
	obj := func(oid objstore.OID, slots ...objstore.OID) storage.ObjectState {
		return storage.ObjectState{OID: oid, Size: 10, Slots: slots}
	}
	for _, tc := range []struct {
		name string
		objs []storage.ObjectState
		want string
	}{
		{"a placement refusal", []storage.ObjectState{obj(1), obj(2), {OID: 3}, obj(4)},
			"gc: load oid:3: storage: allocate oid:3 with size 0"},
		{"a placement refusal in OID order", []storage.ObjectState{obj(1), {OID: 5}, obj(2), {OID: 4}},
			"gc: load oid:4: storage: allocate oid:4 with size 0"},
		{"a placement refusal before a dangling slot target", []storage.ObjectState{obj(1, 7), {OID: 2}},
			"gc: load oid:2: storage: allocate oid:2 with size 0"},
		{"a dangling slot target", []storage.ObjectState{obj(1, 2, 7), obj(2)},
			"gc: load oid:1: slot target oid:7 does not exist"},
	} {
		h := testHeap(t)
		err := h.Load(storeOf(t, tc.objs...))
		if err == nil || err.Error() != tc.want {
			t.Errorf("load of %s:\n got %v\nwant %s", tc.name, err, tc.want)
		}
	}
}

// TestLoadBytesPerObject pins what the collector layer costs per object on
// top of the object store, as objstore's TestHeapBytesPerObject pins the store:
// Go heap after two forced collections, with the restart workload's shape (a
// rooted 200-byte hub with eight slots, each naming one of its eight 100-byte
// slotless leaves) loaded through Heap.Load. What remains is the partitions'
// member lists and the remembered references that cross a partition boundary;
// placement itself lives in the headers the store already counts. The limit is
// the measurement (11.92 bytes on linux/amd64) plus 1 %: a per-object table,
// such as the 16-byte placement table the headers replaced (27.99 bytes with
// it), fails it.
func TestLoadBytesPerObject(t *testing.T) {
	const groups = 200_000 / 9
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	st := objstore.NewStore()
	slots := make([]objstore.OID, 8)
	for oid := objstore.OID(1); oid < groups*9; oid += 9 {
		for k := range slots {
			slots[k] = oid + 1 + objstore.OID(k)
		}
		enter(t, st, storage.ObjectState{OID: oid, Class: objstore.ClassAssembly, Size: 200, Slots: slots, Root: true})
		for k := range slots {
			enter(t, st, storage.ObjectState{OID: slots[k], Class: objstore.ClassAtomicPart, Size: 100})
		}
	}
	before := heap()
	disk, err := storage.NewManager(storage.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := NewHeap(objstore.NewStore(), disk)
	if err := h.Load(st); err != nil {
		t.Fatal(err)
	}
	got := float64(heap()-before) / float64(st.Len())
	runtime.KeepAlive(h)
	const measured = 11.92
	if limit := measured * 1.01; got > limit {
		t.Errorf("%.2f heap bytes per object beyond the store, want at most %.2f", got, limit)
	} else {
		t.Logf("%.2f heap bytes per object beyond the store (limit %.2f)", got, limit)
	}
}

// flakyCommit is a durable backend whose commit fails while *fail is set.
type flakyCommit struct {
	nullBackend
	fail *bool
}

func (b flakyCommit) Commit() error {
	if *b.fail {
		return errors.New("disk gone")
	}
	return nil
}

// TestCommitSealsOnlyStagedBatches pins what Commit reports: a batch is
// sealed when a record was logged since the last successful commit, a failed
// commit keeps the records staged, and a heap without a backend seals nothing.
func TestCommitSealsOnlyStagedBatches(t *testing.T) {
	h := testHeap(t)
	if sealed, err := h.Commit(); sealed || err != nil {
		t.Fatalf("commit without a backend = (%v, %v), want (false, nil)", sealed, err)
	}
	fail := false
	h.SetDurable(flakyCommit{fail: &fail})
	if sealed, err := h.Commit(); sealed || err != nil {
		t.Fatalf("commit with nothing logged = (%v, %v), want (false, nil)", sealed, err)
	}
	mk(t, h, 1, 100, 0)
	fail = true
	if sealed, err := h.Commit(); sealed || err == nil {
		t.Fatalf("failed commit = (%v, %v), want (false, error)", sealed, err)
	}
	fail = false
	if sealed, err := h.Commit(); !sealed || err != nil {
		t.Fatalf("commit after a failed one = (%v, %v), want (true, nil)", sealed, err)
	}
	if err := h.Access(1); err != nil {
		t.Fatal(err)
	}
	if sealed, err := h.Commit(); sealed || err != nil {
		t.Fatalf("commit after a read = (%v, %v), want (false, nil)", sealed, err)
	}
}
