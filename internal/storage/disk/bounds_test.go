package disk

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

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

// TestSizeBoundIsTheHeaders: the log refuses a size exactly where the object
// header does (objstore.MaxSize), so what the simulator and the server accept
// is what a record can hold.
func TestSizeBoundIsTheHeaders(t *testing.T) {
	if err := checkShape(objstore.MaxSize, 0); err != nil {
		t.Errorf("size %d refused: %v", objstore.MaxSize, err)
	}
	if err := checkShape(objstore.MaxSize+1, 0); err == nil {
		t.Errorf("size %d accepted", objstore.MaxSize+1)
	}
	if _, err := objstore.NewStore().CreateWithOID(1, objstore.ClassUnknown, objstore.MaxSize+1, 0); !errors.Is(err, objstore.ErrSizeRange) {
		t.Errorf("object store accepted size %d: %v", objstore.MaxSize+1, err)
	}
}

// TestReplayRefusesWideAlloc: a CRC-valid alloc record with more slots than
// any writer logs is damage; replay reports it instead of allocating them.
func TestReplayRefusesWideAlloc(t *testing.T) {
	for _, nslots := range []int{MaxSlots + 1, 1<<32 - 1} {
		buf := appendRecord(nil, walOp{kind: recAlloc, oid: 1, size: 8, nslots: nslots}, 0)
		buf = appendRecord(buf, walOp{kind: recCommit}, 1)
		objs := objstore.NewStore()
		if _, err := scanWAL(buf, 0, objs); !errors.Is(err, simerr.ErrRecoveryFailed) {
			t.Errorf("replay of a %d-slot alloc: %v, want ErrRecoveryFailed", nslots, err)
		}
		if objs.Len() != 0 {
			t.Errorf("%d-slot alloc entered the object store", nslots)
		}
	}
}

// TestReplayBoundsAllocKeys: replay accepts an OID up to objstore.MaxOIDGap
// past the horizon and no further.
func TestReplayBoundsAllocKeys(t *testing.T) {
	objs := objstore.NewStore()
	if _, err := scanWAL(farOIDWAL(), 0, objs); !errors.Is(err, simerr.ErrRecoveryFailed) {
		t.Errorf("replay of an alloc at OID 1<<62: %v, want ErrRecoveryFailed", err)
	}
	if objs.Len() != 0 || objs.NextOID() != 1 {
		t.Errorf("refused alloc moved the object store: %d objects, next %v", objs.Len(), objs.NextOID())
	}
	for _, tc := range []struct {
		oid objstore.OID
		ok  bool
	}{{objstore.MaxOIDGap, true}, {objstore.MaxOIDGap + 1, false}, {objstore.NilOID, false}} {
		buf := appendRecord(nil, walOp{kind: recAlloc, oid: tc.oid, size: 8}, 0)
		buf = appendRecord(buf, walOp{kind: recCommit}, 1)
		_, err := scanWAL(buf, 0, objstore.NewStore())
		if (err == nil) != tc.ok {
			t.Errorf("replay of an alloc at %v into an empty store: %v, want accepted=%v", tc.oid, err, tc.ok)
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
	if _, err := f.WriteAt(encodeMeta(make([]byte, PageSize), m), slot*PageSize); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{FS: OSFS{Dir: dir}}); !errors.Is(err, simerr.ErrRecoveryFailed) {
		t.Errorf("open with directory entry %v at horizon %v: %v, want ErrRecoveryFailed", objstore.OID(3), objstore.OID(3), err)
	}
}

// TestImageChainBounds: the pages of an image are found by following a chain,
// of data pages in formats 2 to 4 and of directory pages in format 1, and the
// chain is on disk, CRC-valid or not. A chain that comes back to a page it has
// passed used to be followed forever; one that runs into a meta slot or past
// the image's page count used to be believed, although the free list does not
// protect such a page from the next checkpoint. Each is refused, in every
// format. (The older slot's image cannot stand in: each heap.db is opened
// without its WAL, which would have to hold the batches between the two.)
func TestImageChainBounds(t *testing.T) {
	var pinned [3][]byte
	for i, name := range []string{heapFile, filepath.Join("v2", heapFile), filepath.Join("v3", heapFile)} {
		var err error
		if pinned[i], err = os.ReadFile(filepath.Join("testdata", name)); err != nil {
			t.Fatal(err)
		}
	}
	images := []struct {
		name string
		heap []byte
	}{{"format=1", pinned[0]}, {"format=2", pinned[1]}, {"format=3", pinned[2]}, {"format=4", smallImage(t)}}
	// setHdr rewrites the count and next fields of page no and reseals it.
	setHdr := func(heap []byte, no uint32, count uint16, next uint32) {
		le.PutUint16(heap[int(no)*PageSize+5:], count)
		le.PutUint32(heap[int(no)*PageSize+7:], next)
		reseal(heap, no)
	}
	// move copies the chain's last page to page to, growing the file if need
	// be, and points the page before it there.
	move := func(heap []byte, chain []uint32, to uint32) []byte {
		last, prev := chain[len(chain)-1], chain[len(chain)-2]
		if end := int(to+1) * PageSize; end > len(heap) {
			heap = append(heap, make([]byte, end-len(heap))...)
		}
		copy(heap[int(to)*PageSize:][:PageSize], heap[int(last)*PageSize:][:PageSize])
		setHdr(heap, prev, le.Uint16(heap[int(prev)*PageSize+5:]), to)
		return heap
	}
	cases := []struct {
		name   string
		damage func(heap []byte, chain []uint32, pageCount uint32) []byte
	}{
		{"self-link", func(heap []byte, chain []uint32, _ uint32) []byte {
			last := chain[len(chain)-1]
			setHdr(heap, last, 0, last)
			return heap
		}},
		{"two-page cycle", func(heap []byte, chain []uint32, _ uint32) []byte {
			a, b := chain[len(chain)-2], chain[len(chain)-1]
			setHdr(heap, a, 0, b)
			setHdr(heap, b, 0, a)
			return heap
		}},
		// Page 1 is the older meta slot in both images, so the newer one
		// still names the chain. (A next of 0 ends a chain.)
		{"meta page", func(heap []byte, chain []uint32, _ uint32) []byte {
			return move(heap, chain, 1)
		}},
		{"page at pageCount", func(heap []byte, chain []uint32, pageCount uint32) []byte {
			return move(heap, chain, pageCount)
		}},
	}
	for _, img := range images {
		chain, pageCount := imageChain(t, img.heap)
		if len(chain) < 2 {
			t.Fatalf("%s: a chain of %d pages, want at least two", img.name, len(chain))
		}
		for _, tc := range cases {
			t.Run(img.name+"/"+tc.name, func(t *testing.T) {
				heap := tc.damage(slices.Clone(img.heap), chain, pageCount)
				done := make(chan error, 1)
				go func() {
					s, _, err := Open(Options{FS: memFS{heapFile: &memFile{data: heap}}, Fsync: FsyncNever})
					if err == nil {
						_ = s.Close()
					}
					done <- err
				}()
				select {
				case err := <-done:
					if !errors.Is(err, simerr.ErrRecoveryFailed) {
						t.Errorf("open: %v, want ErrRecoveryFailed", err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("open still running after 10s")
				}
			})
		}
	}
}
