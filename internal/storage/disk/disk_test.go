package disk

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"odbgc/internal/objstore"
	"odbgc/internal/simerr"
)

func openTemp(t *testing.T, dir string, fsync FsyncPolicy) (*Store, *RecoveryInfo) {
	t.Helper()
	s, info, err := Open(Options{FS: OSFS{Dir: dir}, Fsync: fsync})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s, info
}

// seedObjects logs a small committed object graph: three objects, one root,
// a couple of pointer stores.
func seedObjects(t *testing.T, s *Store) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(s.LogAlloc(1, objstore.ClassModule, 100, 2))
	must(s.LogAlloc(2, objstore.ClassAtomicPart, 50, 1))
	must(s.LogRoot(1, true))
	must(s.Commit())
	must(s.LogAlloc(3, objstore.ClassAtomicPart, 60, 0))
	must(s.LogSet(1, 0, 2))
	must(s.LogSet(2, 0, 3))
	must(s.Commit())
}

func TestFreshOpenIsEmpty(t *testing.T) {
	s, info := openTemp(t, t.TempDir(), FsyncAlways)
	defer func() {
		if err := s.Close(); err != nil {
			t.Error(err)
		}
	}()
	if info.Objects != 0 || info.BatchesReplayed != 0 || info.TornTail {
		t.Errorf("fresh open recovered %+v", info)
	}
	if s.NumObjects() != 0 || s.NextOID() != 1 {
		t.Errorf("fresh store: %d objects, next %v", s.NumObjects(), s.NextOID())
	}
}

func TestCommitSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTemp(t, dir, FsyncAlways)
	seedObjects(t, s)
	want := s.Digest()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, info := openTemp(t, dir, FsyncAlways)
	defer func() {
		if err := s2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if got := s2.Digest(); got != want {
		t.Errorf("digest changed across reopen: %x != %x", got, want)
	}
	if info.BatchesReplayed != 2 || info.Objects != 3 {
		t.Errorf("recovery = %+v", info)
	}
	if s2.NextOID() != 4 {
		t.Errorf("NextOID = %v", s2.NextOID())
	}
	var got []ObjectState
	s2.ForEach(func(o ObjectState) {
		o.Slots = append([]objstore.OID(nil), o.Slots...)
		got = append(got, o)
	})
	if len(got) != 3 || got[0].OID != 1 || !got[0].Root || got[0].Slots[0] != 2 {
		t.Errorf("recovered objects = %+v", got)
	}
}

func TestCheckpointPrunesWALAndSurvives(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTemp(t, dir, FsyncGroup)
	seedObjects(t, s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.WALTail != 0 {
		t.Errorf("WAL not pruned after checkpoint: tail %d", st.WALTail)
	}
	// More work after the checkpoint, including a reclaim.
	if err := s.LogReclaim([]objstore.OID{3}); err != nil {
		t.Fatal(err)
	}
	if err := s.LogSet(2, 0, objstore.NilOID); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	want := s.Digest()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, info := openTemp(t, dir, FsyncGroup)
	defer func() {
		if err := s2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if got := s2.Digest(); got != want {
		t.Errorf("digest changed across checkpointed reopen")
	}
	if info.CheckpointSeq != 2 || info.BatchesReplayed != 1 {
		t.Errorf("recovery = %+v", info)
	}
	if s2.NumObjects() != 2 {
		t.Errorf("reclaimed object resurrected: %d objects", s2.NumObjects())
	}
	// The OID horizon survives even though object 3 is gone.
	if s2.NextOID() != 4 {
		t.Errorf("NextOID = %v", s2.NextOID())
	}
}

func TestUncommittedStagedRecordsDieWithTheProcess(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTemp(t, dir, FsyncAlways)
	seedObjects(t, s)
	want := s.Digest()
	if err := s.LogAlloc(9, objstore.ClassDocument, 10, 0); err != nil {
		t.Fatal(err)
	}
	// Close without Commit: the staged alloc must vanish.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, _ := openTemp(t, dir, FsyncAlways)
	defer func() {
		if err := s2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if got := s2.Digest(); got != want {
		t.Errorf("uncommitted staged records leaked into recovery")
	}
}

func TestTornWALTailRollsBack(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTemp(t, dir, FsyncAlways)
	seedObjects(t, s)
	want := s.Digest()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a tear: garbage bytes appended past the last commit.
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x55, 0x01, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s2, info := openTemp(t, dir, FsyncAlways)
	defer func() {
		if err := s2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if !info.TornTail {
		t.Error("torn tail not detected")
	}
	if got := s2.Digest(); got != want {
		t.Errorf("torn tail changed recovered state")
	}
	// The tail was trimmed: a third open sees a clean WAL.
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, info3 := openTemp(t, dir, FsyncAlways)
	defer func() {
		if err := s3.Close(); err != nil {
			t.Error(err)
		}
	}()
	if info3.TornTail {
		t.Error("tail still torn after recovery trimmed it")
	}
}

func TestMidBatchTearDropsWholeBatch(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTemp(t, dir, FsyncAlways)
	seedObjects(t, s)
	afterTwo := s.Digest()
	if err := s.LogAlloc(4, objstore.ClassManual, 30, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.LogRoot(4, true); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last batch: cut the WAL 3 bytes short of its end, mid
	// commit-record. Atomicity demands the whole batch disappears.
	path := filepath.Join(dir, walFile)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2, info := openTemp(t, dir, FsyncAlways)
	defer func() {
		if err := s2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if !info.TornTail {
		t.Error("torn batch not detected")
	}
	if got := s2.Digest(); got != afterTwo {
		t.Errorf("partial batch leaked: digest %x, want pre-batch %x", got, afterTwo)
	}
	if s2.NumObjects() != 3 {
		t.Errorf("object from torn batch resurrected")
	}
}

// rotOnceFS flips one bit of the WAL byte at offset at in the first read that
// covers it: a fault on the read path, not in the file.
type rotOnceFS struct {
	FS
	at   int64
	done bool
}

func (f *rotOnceFS) Open(name string) (File, error) {
	file, err := f.FS.Open(name)
	if err != nil || name != walFile {
		return file, err
	}
	return &rotOnceFile{File: file, fs: f}, nil
}

type rotOnceFile struct {
	File
	fs *rotOnceFS
}

func (f *rotOnceFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	if i := f.fs.at - off; !f.fs.done && i >= 0 && i < int64(n) {
		p[i] ^= 0x10
		f.fs.done = true
	}
	return n, err
}

// TestWALReadFaultIsNotATear: a bit flipped on the read path inside the first
// of three batches reads as damage, but not the same twice. Recovery refuses
// the open and leaves the WAL whole, so the next open recovers all three;
// cutting there would have dropped two acknowledged batches. A batch missing
// from the file before a later one that landed (unsynced writes under
// FsyncGroup keep no order) reads the same twice and still rolls back to the
// batch before it.
func TestWALReadFaultIsNotATear(t *testing.T) {
	crashed := func() (memFS, []int) {
		fs := memFS{}
		s, _, err := Open(Options{FS: fs, Fsync: FsyncGroup})
		if err != nil {
			t.Fatal(err)
		}
		var ends []int // WAL length after each commit
		for oid := objstore.OID(1); oid <= 3; oid++ {
			if err := errors.Join(s.LogAlloc(oid, objstore.ClassModule, 100, 2), s.LogRoot(oid, true), s.Commit()); err != nil {
				t.Fatal(err)
			}
			ends = append(ends, len(fs[walFile].data))
		}
		return fs, ends // never closed: a crash
	}

	fs, _ := crashed()
	wal := slices.Clone(fs[walFile].data)
	rot := &rotOnceFS{FS: fs, at: 10}
	if _, _, err := Open(Options{FS: rot}); !errors.Is(err, simerr.ErrRecoveryFailed) || !rot.done {
		t.Fatalf("open through a read fault: %v (fault landed: %v), want ErrRecoveryFailed", err, rot.done)
	}
	if !slices.Equal(fs[walFile].data, wal) {
		t.Fatal("the refused open changed the WAL")
	}
	if _, info, err := Open(Options{FS: fs}); err != nil || info.Objects != 3 || info.BatchesReplayed != 3 {
		t.Fatalf("open after the read fault: %+v, %v; want 3 objects in 3 batches", info, err)
	}

	fs, ends := crashed()
	clear(fs[walFile].data[ends[0]:ends[1]])
	_, info, err := Open(Options{FS: fs})
	if err != nil || !info.TornTail || info.Objects != 1 || info.BatchesReplayed != 1 {
		t.Fatalf("open with batch 2 lost: %+v, %v; want a tear after batch 1", info, err)
	}
	if len(fs[walFile].data) != ends[0] {
		t.Errorf("WAL is %d bytes after the roll-back, want %d", len(fs[walFile].data), ends[0])
	}
}

func TestCorruptDataPageFailsRecovery(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTemp(t, dir, FsyncAlways)
	seedObjects(t, s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first checkpoint page (page 2).
	path := filepath.Join(dir, heapFile)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xff}, 2*PageSize+100); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	_, _, err = Open(Options{FS: OSFS{Dir: dir}, Fsync: FsyncAlways})
	if err == nil {
		t.Fatal("recovery over a rotted page succeeded")
	}
	if !errors.Is(err, simerr.ErrRecoveryFailed) {
		t.Errorf("error not classified as recovery failure: %v", err)
	}
	if simerr.Classify(err) != simerr.ClassRecoveryFailed {
		t.Errorf("Classify = %v", simerr.Classify(err))
	}
}

func TestTornMetaFlipFallsBackToPreviousCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTemp(t, dir, FsyncAlways)
	seedObjects(t, s)
	if err := s.Checkpoint(); err != nil { // generation 1 → slot 1
		t.Fatal(err)
	}
	if err := s.LogAlloc(4, objstore.ClassManual, 30, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	want := s.Digest()
	if err := s.Checkpoint(); err != nil { // generation 2 → slot 0
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the generation-2 meta write (slot 0). Recovery must fall back
	// to generation 1 — but the WAL was pruned at generation 2, so this
	// only stays lossless because the test re-tears *before* that prune
	// could matter: emulate the real torn-flip crash by also restoring the
	// WAL bytes that existed before checkpoint 2 pruned them.
	heapPath := filepath.Join(dir, heapFile)
	f, err := os.OpenFile(heapPath, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xaa}, 50); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Rebuild the WAL tail exactly as it stood before checkpoint 2: batch 3
	// (the alloc of OID 4). Re-encode it through the same encoder.
	var buf []byte
	buf = appendRecord(buf, walOp{kind: recAlloc, oid: 4, class: objstore.ClassManual, size: 30}, 0)
	buf = appendRecord(buf, walOp{kind: recCommit}, 3)
	if err := os.WriteFile(filepath.Join(dir, walFile), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, info := openTemp(t, dir, FsyncAlways)
	defer func() {
		if err := s2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if !info.MetaFallback {
		t.Error("meta fallback not reported")
	}
	if info.CheckpointSeq != 2 || info.BatchesReplayed != 1 {
		t.Errorf("recovery = %+v", info)
	}
	if got := s2.Digest(); got != want {
		t.Errorf("torn meta flip lost state: %x != %x", got, want)
	}
}

// A checkpoint's image and meta reach the device under one flush, so the meta
// can be intact while its image is not. The older slot's image then serves,
// with the WAL replayed over it — but only while the WAL still holds every
// batch up to the refused image's sequence. The next checkpoint overwrites the
// refused slot, not the one that served.
func TestDamagedImageFallsBackToOlder(t *testing.T) {
	mem := memFS{}
	s, _, err := Open(Options{FS: mem, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	seedObjects(t, s)
	if err := s.Checkpoint(); err != nil { // generation 1, seq 2
		t.Fatal(err)
	}
	if err := s.LogAlloc(4, objstore.ClassManual, 30, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil { // generation 2, seq 3; the WAL keeps batch 3
		t.Fatal(err)
	}
	want, head := s.Digest(), s.dirHead
	// The process dies here, and a byte of the newer image rots.
	crashed := func(wal []byte) memFS {
		heap := slices.Clone(mem[heapFile].data)
		heap[int(head)*PageSize+100] ^= 0xff
		return memFS{heapFile: &memFile{data: heap}, walFile: &memFile{data: wal}}
	}

	fs := crashed(slices.Clone(mem[walFile].data))
	s2, info, err := Open(Options{FS: fs, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if !info.MetaFallback || info.CheckpointSeq != 2 || info.BatchesReplayed != 1 || info.Digest != want {
		t.Errorf("recovery = %+v, want a fallback to checkpoint 2 with batch 3 replayed and the same digest", info)
	}
	if err := s2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, info, err := Open(Options{FS: fs, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if info.MetaFallback || info.CheckpointSeq != 3 || info.Digest != want || s3.generation != 2 {
		t.Errorf("after checkpointing the fallback: %+v at generation %d, want checkpoint 3 at generation 2 and the same digest", info, s3.generation)
	}
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}

	// Once the WAL no longer holds batch 3, the older image would drop it.
	_, _, err = Open(Options{FS: crashed(nil), Fsync: FsyncAlways})
	if !errors.Is(err, simerr.ErrRecoveryFailed) || !strings.Contains(err.Error(), "seq 3 refused") {
		t.Errorf("open with the image damaged and the WAL cut: %v, want ErrRecoveryFailed naming seq 3", err)
	}
}

func TestStaleWALPrefixAfterCheckpointIsSkipped(t *testing.T) {
	// A crash between the meta flip and the WAL truncate leaves absorbed
	// batches in the WAL. Reconstruct that state by writing the pre-prune
	// batches back after a clean checkpoint.
	dir := t.TempDir()
	s, _ := openTemp(t, dir, FsyncAlways)
	seedObjects(t, s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := s.Digest()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	buf = appendRecord(buf, walOp{kind: recAlloc, oid: 1, class: objstore.ClassModule, size: 100, nslots: 2}, 0)
	buf = appendRecord(buf, walOp{kind: recCommit}, 1)
	if err := os.WriteFile(filepath.Join(dir, walFile), buf, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, info := openTemp(t, dir, FsyncAlways)
	defer func() {
		if err := s2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if info.BatchesReplayed != 0 {
		t.Errorf("stale batch replayed: %+v", info)
	}
	if got := s2.Digest(); got != want {
		t.Errorf("stale WAL prefix corrupted state")
	}
}

func TestEmptyCommitIsNoOp(t *testing.T) {
	s, _ := openTemp(t, t.TempDir(), FsyncAlways)
	defer func() {
		if err := s.Close(); err != nil {
			t.Error(err)
		}
	}()
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Seq != 0 || st.WALTail != 0 || st.Commits != 0 {
		t.Errorf("empty commit left tracks: %+v", st)
	}
}

func TestCheckpointRefusesStagedRecords(t *testing.T) {
	s, _ := openTemp(t, t.TempDir(), FsyncAlways)
	defer func() {
		if err := s.Close(); err != nil {
			t.Error(err)
		}
	}()
	if err := s.LogAlloc(1, objstore.ClassModule, 10, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err == nil {
		t.Error("checkpoint over staged records succeeded")
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Errorf("checkpoint after commit: %v", err)
	}
}

func TestManyObjectsSpanPagesAndCheckpointsRecycle(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTemp(t, dir, FsyncNever)
	// Enough objects to need several data and directory pages.
	oid := objstore.OID(1)
	for i := 0; i < 2000; i++ {
		if err := s.LogAlloc(oid, objstore.ClassAtomicPart, 64, 4); err != nil {
			t.Fatal(err)
		}
		if oid > 1 {
			if err := s.LogSet(oid, 0, oid-1); err != nil {
				t.Fatal(err)
			}
		}
		oid++
		if i%100 == 0 {
			if err := s.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Copy-on-write alternates between two images: the second checkpoint
	// needs fresh pages (the first image is still the committed one while
	// it writes), but the third must reuse the first image's freed pages,
	// so the heap stops growing.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pagesAfterSecond := s.Stats().PageCount
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().PageCount; got != pagesAfterSecond {
		t.Errorf("third checkpoint grew the heap: %d → %d pages", pagesAfterSecond, got)
	}
	want := s.Digest()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, info := openTemp(t, dir, FsyncNever)
	defer func() {
		if err := s2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if got := s2.Digest(); got != want {
		t.Errorf("multi-page checkpoint did not round-trip")
	}
	if info.Objects != 2000 {
		t.Errorf("recovered %d objects", info.Objects)
	}
}

// flakyFS wraps an FS and injects failures into one named file: syncFails
// counts Sync calls to fail, writeFails counts WriteAts to fail,
// metaWriteFails counts WriteAts inside the meta-slot region (offset below
// 2*PageSize) to fail, and shortWrites counts WriteAts to cut in half while
// reporting no error. Counters are armed after Open, so recovery runs clean
// and the injection lands exactly where a test aims it. writes counts the
// WriteAts that reached the file whole, and written the bytes they carried.
type flakyFS struct {
	FS
	name           string
	syncFails      int
	writeFails     int
	metaWriteFails int
	shortWrites    int
	writes         int
	written        int64
}

func (f *flakyFS) Open(name string) (File, error) {
	file, err := f.FS.Open(name)
	if err != nil || name != f.name {
		return file, err
	}
	return &flakyFile{File: file, fs: f}, nil
}

type flakyFile struct {
	File
	fs *flakyFS
}

func (f *flakyFile) Sync() error {
	if f.fs.syncFails > 0 {
		f.fs.syncFails--
		return errors.New("injected sync failure")
	}
	return f.File.Sync()
}

func (f *flakyFile) WriteAt(p []byte, off int64) (int, error) {
	if f.fs.writeFails > 0 {
		f.fs.writeFails--
		return 0, errors.New("injected write failure")
	}
	if f.fs.metaWriteFails > 0 && off < 2*PageSize {
		f.fs.metaWriteFails--
		return 0, errors.New("injected meta write failure")
	}
	if f.fs.shortWrites > 0 {
		f.fs.shortWrites--
		return f.File.WriteAt(p[:len(p)/2], off)
	}
	f.fs.writes++
	f.fs.written += int64(len(p))
	return f.File.WriteAt(p, off)
}

// A failed WAL fsync must rewind the append: the staged batch stays staged
// for a retry, and the retry must not lay down a second copy of the same
// sequence number (which would poison recovery with a duplicate-seq error).
func TestCommitSyncFailureRewindsWAL(t *testing.T) {
	dir := t.TempDir()
	ffs := &flakyFS{FS: OSFS{Dir: dir}, name: walFile}
	s, _, err := Open(Options{FS: ffs, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	seedObjects(t, s)
	before := s.Stats()

	if err := s.LogAlloc(4, objstore.ClassManual, 30, 0); err != nil {
		t.Fatal(err)
	}
	ffs.syncFails = 1
	if err := s.Commit(); err == nil {
		t.Fatal("commit over a failing fsync succeeded")
	}
	if st := s.Stats(); st.Seq != before.Seq || st.WALTail != before.WALTail || st.Commits != before.Commits {
		t.Errorf("failed commit left tracks: %+v, want seq/tail/commits of %+v", st, before)
	}
	// The staged batch survives; the retry commits it exactly once.
	if err := s.Commit(); err != nil {
		t.Fatalf("retry after failed fsync: %v", err)
	}
	if st := s.Stats(); st.Seq != before.Seq+1 {
		t.Errorf("retry seq = %d, want %d", st.Seq, before.Seq+1)
	}
	want := s.Digest()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, info := openTemp(t, dir, FsyncAlways)
	defer func() {
		if err := s2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if got := s2.Digest(); got != want {
		t.Errorf("digest changed across reopen after fsync failure")
	}
	if info.BatchesReplayed != 3 {
		t.Errorf("recovery = %+v, want 3 batches (no duplicate)", info)
	}
}

// A failed checkpoint must roll back completely — allocator state restored,
// the aborted image's frames out of the pool — so the next checkpoint (and
// every one after) still works.
func TestCheckpointFailureRollsBackAndRetries(t *testing.T) {
	dir := t.TempDir()
	ffs := &flakyFS{FS: OSFS{Dir: dir}, name: heapFile}
	s, _, err := Open(Options{FS: ffs, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	seedObjects(t, s)
	before := s.Stats()

	ffs.writeFails = 1
	if err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint over a failing page write succeeded")
	}
	if st := s.Stats(); st.PageCount != before.PageCount || st.FreePages != before.FreePages {
		t.Errorf("aborted checkpoint leaked pages: %+v, want page state of %+v", st, before)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after aborted checkpoint: %v", err)
	}
	// Another full commit+checkpoint cycle exercises the dirty-page flush
	// over the pool the aborted image once occupied.
	if err := s.LogAlloc(4, objstore.ClassManual, 30, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("second checkpoint after aborted checkpoint: %v", err)
	}
	want := s.Digest()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, info := openTemp(t, dir, FsyncAlways)
	defer func() {
		if err := s2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if got := s2.Digest(); got != want {
		t.Errorf("digest changed across reopen after aborted checkpoint")
	}
	if info.CheckpointSeq != 3 {
		t.Errorf("recovery = %+v, want checkpoint seq 3", info)
	}
}

// A failure at the meta flip itself also rolls back, and the retry lands on
// the same slot with a fresh image; the store round-trips afterwards.
func TestCheckpointMetaWriteFailureRetries(t *testing.T) {
	dir := t.TempDir()
	ffs := &flakyFS{FS: OSFS{Dir: dir}, name: heapFile}
	s, _, err := Open(Options{FS: ffs, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	seedObjects(t, s)

	ffs.metaWriteFails = 1
	if err := s.Checkpoint(); err == nil {
		t.Fatal("checkpoint over a failing meta write succeeded")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after failed meta flip: %v", err)
	}
	want := s.Digest()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, info := openTemp(t, dir, FsyncAlways)
	defer func() {
		if err := s2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if got := s2.Digest(); got != want {
		t.Errorf("digest changed across reopen after failed meta flip")
	}
	if info.CheckpointSeq != 2 || info.BatchesReplayed != 0 {
		t.Errorf("recovery = %+v", info)
	}
}

// A run write that lands short without an error is a failed one: the image
// is aborted exactly as on a failed page write, and the retry round-trips.
func TestCheckpointShortRunWriteAborts(t *testing.T) {
	dir := t.TempDir()
	ffs := &flakyFS{FS: OSFS{Dir: dir}, name: heapFile}
	s, _, err := Open(Options{FS: ffs, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	seedObjects(t, s)
	before := s.Stats()

	ffs.shortWrites = 1
	if err := s.Checkpoint(); !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("checkpoint over a short run write: %v, want %v", err, io.ErrShortWrite)
	}
	if st := s.Stats(); st.PageCount != before.PageCount || st.FreePages != before.FreePages || st.Checkpoints != before.Checkpoints {
		t.Errorf("aborted checkpoint left tracks: %+v, want page state of %+v", st, before)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after aborted checkpoint: %v", err)
	}
	want := s.Digest()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, info := openTemp(t, dir, FsyncAlways)
	defer s2.Close()
	if got := s2.Digest(); got != want || info.CheckpointSeq != 2 || info.BatchesReplayed != 0 {
		t.Errorf("reopen after a short run write: digest match %v, recovery %+v", got == want, info)
	}
}

// An image goes out in runs of consecutive page numbers, one write each and
// at most a window long. A freshly built database alternates between two
// contiguous regions, so its images are a handful of writes; and when the free
// list is in pieces, a run is at worst one page, never less.
func TestCheckpointWritesInRuns(t *testing.T) {
	ffs := &flakyFS{FS: memFS{}, name: heapFile}
	buildBenchDB(t, ffs, 30_000) // checkpoints once itself
	s, _, err := Open(Options{FS: ffs, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	// checkpoint returns the image's writes and pages, the meta page aside.
	checkpoint := func() (writes, pages int) {
		t.Helper()
		w, b := ffs.writes, ffs.written
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		return ffs.writes - w - 1, int((ffs.written-b)/PageSize) - 1
	}
	for _, which := range []string{"second", "third"} {
		// More data pages than a window holds, so it is written out mid-image.
		if writes, pages := checkpoint(); writes > 8 || pages < 2*windowPages {
			t.Errorf("%s image: %d pages in %d writes, want at least %d pages in at most 8 writes", which, pages, writes, 2*windowPages)
		}
	}

	// Fragment the free list: the region the next image would have reused is
	// taken, and so is every other page of a stretch beyond the file's end —
	// what images whose meta flip failed leave behind until the next open —
	// so no two free pages are neighbours and every page is a run of its own.
	for _, no := range s.freePages {
		s.usedPages[no] = true
	}
	for i := uint32(0); i < 400; i += 2 {
		s.usedPages[s.pageCount+i] = true
	}
	s.pageCount += 400
	s.rebuildFreeList(s.usedPages)
	if writes, pages := checkpoint(); writes != pages {
		t.Errorf("fragmented image: %d pages in %d writes, want one write a page", pages, writes)
	}
	want := s.Digest()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, info, err := Open(Options{FS: ffs, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Digest() != want || info.BatchesReplayed != 0 {
		t.Errorf("fragmented image did not round-trip: %+v", info)
	}
}

// A checkpoint allocates nothing once warm: it borrows its page window, meta
// page included, from the pool, builds the image's used-page set in the map
// the image before the committed one left behind, and rebuilds the free list
// in its own capacity. The runtime's collector may empty the pool between two
// runs; the checkpoint after that refills it once, a few allocations that
// AllocsPerRun's integer average over 100 runs absorbs, so the test forces no
// collection of its own. Under the race detector the pool drops Puts on
// purpose, so a checkpoint can find it empty any time: there the checkpoints
// run and their allocations are not counted.
func TestCheckpointAllocatesNothing(t *testing.T) {
	fs := memFS{}
	buildBenchDB(t, fs, 10_000)
	s, _, err := Open(Options{FS: fs, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	checkpoint := func() {
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		checkpoint() // the file settles at two alternating images
	}
	n := testing.AllocsPerRun(100, checkpoint)
	if raceEnabled {
		t.Skipf("race detector: sync.Pool drops Puts, so %v allocations per checkpoint are not counted", n)
	}
	if n != 0 {
		t.Errorf("%v allocations per checkpoint, want 0", n)
	}
}

// What a durable engine pays per acknowledged request allocates nothing under
// any fsync policy: the store stages into its own buffers, encodes into its
// reused batch buffer and appends with one write. "set" is a pointer store; in
// "lifecycle" one batch creates, roots, unroots and reclaims an object under
// the same OID, as a create and a later collection log it.
func TestCommitAllocatesNothing(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncGroup, FsyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			s, _, err := Open(Options{FS: memFS{}, Fsync: policy})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			for oid := objstore.OID(1); oid <= 2; oid++ {
				if err := s.LogAlloc(oid, objstore.ClassAtomicPart, 128, 2); err != nil {
					t.Fatal(err)
				}
			}
			i := 0
			set := func() {
				if err := s.LogSet(1, i%2, 2); err != nil {
					t.Fatal(err)
				}
				if err := s.Commit(); err != nil {
					t.Fatal(err)
				}
				i++
			}
			if n := testing.AllocsPerRun(200, set); n != 0 {
				t.Errorf("set: %v allocations per commit, want 0", n)
			}
			dead := []objstore.OID{3}
			lifecycle := func() {
				for _, err := range []error{
					s.LogAlloc(3, objstore.ClassAtomicPart, 64, 1),
					s.LogRoot(3, true),
					s.LogRoot(3, false),
					s.LogReclaim(dead),
					s.Commit(),
				} {
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			if n := testing.AllocsPerRun(200, lifecycle); n != 0 {
				t.Errorf("lifecycle: %v allocations per commit, want 0", n)
			}
		})
	}
}

// Stores on different goroutines checkpoint through the one pool of windows:
// each borrows a window of its own, and each image reopens to its store's
// state. Run under -race, this is the pool's concurrency check.
func TestConcurrentCheckpointsShareThePool(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		fs := memFS{}
		buildBenchDB(t, fs, 2_000+1_000*g)
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, _, err := Open(Options{FS: fs, Fsync: FsyncNever})
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 10 && err == nil; i++ {
				err = s.Checkpoint()
			}
			want := s.Digest()
			if cerr := s.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				t.Error(err)
				return
			}
			s2, info, err := Open(Options{FS: fs, Fsync: FsyncNever})
			if err != nil {
				t.Error(err)
				return
			}
			if info.Digest != want || info.BatchesReplayed != 0 {
				t.Errorf("store %d: reopened image does not hold the checkpointed state: %+v", g, info)
			}
			_ = s2.Close() // only read
		}()
	}
	wg.Wait()
}

// Committing an inconsistent batch (the caller's bug) poisons the store:
// the WAL already holds the batch, so every later operation must fail
// loudly instead of writing past a state recovery cannot reach.
func TestInconsistentBatchPoisonsStore(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTemp(t, dir, FsyncAlways)
	seedObjects(t, s)
	if err := s.LogSet(99, 0, 1); err != nil { // set on an object never allocated
		t.Fatal(err)
	}
	if err := s.Commit(); err == nil {
		t.Fatal("commit of an inconsistent batch succeeded")
	}
	if err := s.LogAlloc(5, objstore.ClassManual, 10, 0); err == nil {
		t.Error("stage on a poisoned store succeeded")
	}
	if err := s.Commit(); err == nil {
		t.Error("commit on a poisoned store succeeded")
	}
	if err := s.Checkpoint(); err == nil {
		t.Error("checkpoint on a poisoned store succeeded")
	}
	if err := s.Close(); err == nil {
		t.Error("close of a poisoned store reported success")
	}
	// The durable WAL holds the inconsistent batch; recovery refuses it.
	if _, _, err := Open(Options{FS: OSFS{Dir: dir}, Fsync: FsyncAlways}); !errors.Is(err, simerr.ErrRecoveryFailed) {
		t.Errorf("reopen of a store with an inconsistent committed batch: %v, want recovery failure", err)
	}
}

func TestRecoveryIsDeterministic(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTemp(t, dir, FsyncAlways)
	seedObjects(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	heap1, err := os.ReadFile(filepath.Join(dir, heapFile))
	if err != nil {
		t.Fatal(err)
	}
	wal1, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	s2, info2 := openTemp(t, dir, FsyncAlways)
	d2 := s2.Digest()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, info3 := openTemp(t, dir, FsyncAlways)
	d3 := s3.Digest()
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
	if d2 != d3 || *info2 != *info3 {
		t.Errorf("recovery not deterministic: %+v vs %+v", info2, info3)
	}
	heap2, err := os.ReadFile(filepath.Join(dir, heapFile))
	if err != nil {
		t.Fatal(err)
	}
	wal2, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if string(heap1) != string(heap2) || string(wal1) != string(wal2) {
		t.Error("recovery rewrote on-disk bytes of a clean store")
	}
}

// opLogFS records, in order, every mutating call the store makes on its files
// as "name.Op".
type opLogFS struct {
	FS
	log []string
}

func (f *opLogFS) Open(name string) (File, error) {
	file, err := f.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &opLogFile{File: file, fs: f, name: name}, nil
}

type opLogFile struct {
	File
	fs   *opLogFS
	name string
}

func (f *opLogFile) note(op string) { f.fs.log = append(f.fs.log, f.name+"."+op) }

func (f *opLogFile) WriteAt(p []byte, off int64) (int, error) {
	f.note("WriteAt")
	return f.File.WriteAt(p, off)
}

func (f *opLogFile) Truncate(size int64) error {
	f.note("Truncate")
	return f.File.Truncate(size)
}

func (f *opLogFile) Sync() error {
	f.note("Sync")
	return f.File.Sync()
}

// take returns the calls logged since the last take, optionally only those on
// one file.
func (f *opLogFS) take(file string) []string {
	var out []string
	for _, op := range f.log {
		if file == "" || strings.HasPrefix(op, file+".") {
			out = append(out, op)
		}
	}
	f.log = f.log[:0]
	return out
}

// A checkpoint is one device flush — the image and the meta flip go out
// together, the flip vouching for the image by its sum — and does not touch
// the WAL: every batch in it is at or below the image's
// sequence, which replay skips. The first commit afterwards cuts the stale
// file in front of the Sync it owes anyway, and a Close that comes first cuts
// and syncs it, so a cleanly closed store still leaves an empty WAL.
func TestCheckpointLeavesTheWALToTheNextCommit(t *testing.T) {
	mem := memFS{}
	fs := &opLogFS{FS: mem}
	s, _, err := Open(Options{FS: fs, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	seedObjects(t, s)
	stale := len(mem[walFile].data)
	fs.take("")

	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ops := fs.take("")
	syncs := 0
	for _, op := range ops {
		switch op {
		case heapFile + ".Sync":
			syncs++
		case heapFile + ".WriteAt":
		default:
			t.Errorf("checkpoint under fsync always issued %s", op)
		}
	}
	if syncs != 1 {
		t.Errorf("checkpoint issued %d syncs (%v), want one after the image and the flip", syncs, ops)
	}
	if st := s.Stats(); st.WALTail != 0 || len(mem[walFile].data) != stale {
		t.Errorf("after the checkpoint: append offset %d (want 0), WAL file %d bytes (want the %d stale ones untouched)",
			st.WALTail, len(mem[walFile].data), stale)
	}
	want := s.Digest()

	// A process killed here reopens onto the stale WAL and replays none of it.
	crashed := memFS{}
	for name, f := range mem {
		crashed[name] = &memFile{data: slices.Clone(f.data)}
	}
	s2, info, err := Open(Options{FS: crashed, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if info.BatchesReplayed != 0 || info.CheckpointSeq != 2 || info.Digest != want || info.TornTail {
		t.Errorf("reopen between checkpoint and commit: %+v, want 0 batches replayed over checkpoint 2 and the same digest", info)
	}
	// Recovery saw that it applied nothing, so the file is stale for this
	// process too: its Close (or first commit) cuts it, and the restart after
	// that has no absorbed bytes left to scan.
	if tail := s2.Stats().WALTail; tail != 0 {
		t.Errorf("reopen onto a wholly absorbed WAL appends at %d, want 0", tail)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if n := len(crashed[walFile].data); n != 0 {
		t.Errorf("close after such a reopen left %d WAL bytes", n)
	}
	s2, info, err = Open(Options{FS: crashed, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if info.WALBytes != 0 || info.BatchesReplayed != 0 || info.Digest != want {
		t.Errorf("second reopen: %+v, want an empty WAL and the same digest", info)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	// The next commit resets the file, and its sync failing rewinds to the
	// reset file, not to the stale one.
	if err := s.LogAlloc(4, objstore.ClassManual, 30, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, want := fs.take(walFile), []string{walFile + ".Truncate", walFile + ".WriteAt", walFile + ".Sync"}; !slices.Equal(got, want) {
		t.Errorf("first commit after a checkpoint issued %v, want %v", got, want)
	}
	if int(s.Stats().WALTail) != len(mem[walFile].data) || s.Stats().WALTail >= int64(stale) {
		t.Errorf("WAL holds %d bytes with the append offset at %d after one small batch", len(mem[walFile].data), s.Stats().WALTail)
	}
	if err := s.LogRoot(4, true); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, want := fs.take(walFile), []string{walFile + ".WriteAt", walFile + ".Sync"}; !slices.Equal(got, want) {
		t.Errorf("second commit after a checkpoint issued %v, want %v", got, want)
	}

	// Close straight after a checkpoint: an empty, synced WAL.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want = s.Digest()
	fs.take("")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := fs.take(""), []string{walFile + ".Truncate", walFile + ".Sync"}; !slices.Equal(got, want) {
		t.Errorf("close after a checkpoint issued %v, want %v", got, want)
	}
	if n := len(mem[walFile].data); n != 0 {
		t.Errorf("closed store left %d WAL bytes", n)
	}
	s3, info, err := Open(Options{FS: mem, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if info.BatchesReplayed != 0 || info.CheckpointSeq != 4 || info.Digest != want || info.WALBytes != 0 {
		t.Errorf("reopen after close: %+v, want checkpoint 4, an empty WAL and the same digest", info)
	}
}

// The first commit after a checkpoint cuts the stale WAL before it appends.
// If its sync then fails, the rewind lands on the empty file — the batch stays
// staged, the retry lays it down once, and recovery replays exactly that one.
func TestCommitSyncFailureAfterCheckpoint(t *testing.T) {
	mem := memFS{}
	ffs := &flakyFS{FS: mem, name: walFile}
	s, _, err := Open(Options{FS: ffs, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	seedObjects(t, s)
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.LogAlloc(4, objstore.ClassManual, 30, 0); err != nil {
		t.Fatal(err)
	}
	ffs.syncFails = 1
	if err := s.Commit(); err == nil {
		t.Fatal("commit over a failing fsync succeeded")
	}
	if st := s.Stats(); st.Seq != 2 || st.WALTail != 0 || len(mem[walFile].data) != 0 {
		t.Errorf("failed commit left seq %d, append offset %d, %d WAL bytes; want 2, 0, 0", st.Seq, st.WALTail, len(mem[walFile].data))
	}
	if err := s.Commit(); err != nil {
		t.Fatalf("retry after failed fsync: %v", err)
	}
	want := s.Digest()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, info, err := Open(Options{FS: mem, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if info.Digest != want || info.CheckpointSeq != 2 || info.BatchesReplayed != 1 {
		t.Errorf("recovery = %+v, want one batch over checkpoint 2 and the same digest", info)
	}
}

// A checksummed meta page of a format this build does not read is a newer
// writer's image, not damage: Open refuses it instead of falling back to the
// other slot, which would quietly drop every batch the newer image absorbed.
func TestNewerImageFormatRefused(t *testing.T) {
	heap := smallImage(t) // two checkpoints: slot 0 holds the newer meta
	le.PutUint32(heap[pageHdrLen+4:], metaVersion+1)
	reseal(heap, 0)
	if _, _, err := Open(Options{FS: memFS{heapFile: &memFile{data: heap}}}); !errors.Is(err, errImageFormat) {
		t.Errorf("open of a format-%d image: %v, want %v", metaVersion+1, err, errImageFormat)
	}
}
