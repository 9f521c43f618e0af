package disk

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"odbgc/internal/objstore"
	"odbgc/internal/simerr"
)

// Everything the durable backend accepts, the object store must: a recovered
// object is recreated through Store.CreateWithOID. The conversion does not
// compile if MaxSlots outgrows objstore.MaxSlots.
const _ = uint(objstore.MaxSlots - MaxSlots)

// farOIDWAL is a CRC-valid, committed batch allocating an object at an OID no
// allocator would hand out. The table's directory grows to reach any key it
// is given, so replay must refuse the key, not try to reach it.
func farOIDWAL() []byte {
	buf := appendRecord(nil, walOp{kind: recAlloc, oid: 1 << 62, class: objstore.ClassModule, size: 8}, 0)
	return appendRecord(buf, walOp{kind: recCommit}, 1)
}

// TestLogAllocRefusesWideObject: an object with more slots than a checkpoint
// page holds used to commit and then fail every later checkpoint. It is
// refused at staging, and nothing reaches the log.
func TestLogAllocRefusesWideObject(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTemp(t, dir, FsyncAlways)
	for _, nslots := range []int{MaxSlots + 1, 1100, 1 << 31, -1} {
		if err := s.LogAlloc(1, objstore.ClassModule, 1, nslots); err == nil {
			t.Errorf("LogAlloc with %d slots accepted", nslots)
		}
	}
	if err := s.LogAlloc(1, objstore.ClassModule, -1, 0); err == nil {
		t.Error("LogAlloc with negative size accepted")
	}
	if len(s.ops) != 0 {
		t.Errorf("%d records staged by refused allocs", len(s.ops))
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.WALTail != 0 || st.Seq != 0 {
		t.Errorf("refused allocs reached the log: %+v", st)
	}

	// The widest object that does fit is logged, checkpointed (its record
	// fills a data page to within a few bytes) and recovered.
	if err := s.LogAlloc(1, objstore.ClassModule, 1, MaxSlots); err != nil {
		t.Fatal(err)
	}
	if err := s.LogSet(1, MaxSlots-1, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
	}
	want := s.Digest()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, info := openTemp(t, dir, FsyncAlways)
	defer s2.Close()
	if info.Digest != want || info.Objects != 1 {
		t.Errorf("recovery = %+v", info)
	}
}

// TestReplayRefusesWideAlloc: a CRC-valid alloc record with more slots than
// any writer logs is damage; replay reports it instead of allocating them.
func TestReplayRefusesWideAlloc(t *testing.T) {
	for _, nslots := range []int{MaxSlots + 1, 1<<32 - 1} {
		buf := appendRecord(nil, walOp{kind: recAlloc, oid: 1, size: 8, nslots: nslots}, 0)
		buf = appendRecord(buf, walOp{kind: recCommit}, 1)
		mem := newMemState()
		if _, err := scanWAL(buf, 0, mem); !errors.Is(err, simerr.ErrRecoveryFailed) {
			t.Errorf("replay of a %d-slot alloc: %v, want ErrRecoveryFailed", nslots, err)
		}
		if mem.objects.Len() != 0 {
			t.Errorf("%d-slot alloc entered the mirror", nslots)
		}
	}
}

// TestReplayBoundsAllocKeys: replay accepts an OID up to objstore.MaxOIDGap
// past the mirror's horizon and no further.
func TestReplayBoundsAllocKeys(t *testing.T) {
	mem := newMemState()
	if _, err := scanWAL(farOIDWAL(), 0, mem); !errors.Is(err, simerr.ErrRecoveryFailed) {
		t.Errorf("replay of an alloc at OID 1<<62: %v, want ErrRecoveryFailed", err)
	}
	if mem.objects.Len() != 0 || mem.nextOID != 1 {
		t.Errorf("refused alloc moved the mirror: %d objects, next %v", mem.objects.Len(), mem.nextOID)
	}
	for _, tc := range []struct {
		oid objstore.OID
		ok  bool
	}{{objstore.MaxOIDGap, true}, {objstore.MaxOIDGap + 1, false}, {objstore.NilOID, false}} {
		buf := appendRecord(nil, walOp{kind: recAlloc, oid: tc.oid, size: 8}, 0)
		buf = appendRecord(buf, walOp{kind: recCommit}, 1)
		_, err := scanWAL(buf, 0, newMemState())
		if (err == nil) != tc.ok {
			t.Errorf("replay of an alloc at %v into an empty mirror: %v, want accepted=%v", tc.oid, err, tc.ok)
		}
	}
}

// TestCheckpointDirectoryKeyBound: a directory entry at or beyond the image's
// own OID horizon cannot have been written by a checkpoint. The image here is
// a real one whose meta page is re-stamped with a lower horizon.
func TestCheckpointDirectoryKeyBound(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTemp(t, dir, FsyncAlways)
	seedObjects(t, s) // objects 1..3, horizon 4
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	m := meta{generation: s.generation, seq: s.seq, nextOID: 3, pageCount: s.pageCount, dirHead: s.dirHead, objects: 3}
	slot := int64(s.generation % 2)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, heapFile), os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(encodeMeta(m), slot*PageSize); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{FS: OSFS{Dir: dir}}); !errors.Is(err, simerr.ErrRecoveryFailed) {
		t.Errorf("open with directory entry %v at horizon %v: %v, want ErrRecoveryFailed", objstore.OID(3), objstore.OID(3), err)
	}
}
