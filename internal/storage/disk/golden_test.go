package disk

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"odbgc/internal/objstore"
)

// The constants below pin "same bytes". goldenStateDigest and the two file
// hashes were recorded before the committed mirror became a table, under image
// format 1, and testdata/ holds the heap.db and wal.log goldenOps wrote then:
// whatever holds the mirror, and whatever format a checkpoint writes, that pair
// must keep opening to the same state. goldenStateDigest hashes the state as
// the digest once did, as eight-byte words (wordDigest); goldenCompactDigest
// is the same state through today's compact stream (writeDigestStream), which
// RecoveryInfo.Digest and Store.Digest report. goldenHeapV2SHA256 is heap.db
// as goldenOps wrote it in format 2 (at 508e474), and testdata/v2/ holds that
// pair; goldenHeapV3SHA256 is heap.db as goldenOps wrote it in format 3 (at
// 6868f9a), and testdata/v3/ holds that pair. goldenHeapV4SHA256 is heap.db as
// goldenOps writes it now, in format 4, which differs from the format-3 file
// in its two meta pages alone: a checkpoint writes no state chain. The WAL and
// the state are unchanged by the format. A change that moves any of them has
// changed the on-disk format, the checkpoint's page-allocation or write
// order, the recovered state, or the canonical digest stream, and has to say
// so.
const (
	goldenStateDigest   = "d19b4126bd0cb5d3369de505f241b1afee934dffb1d6c48305e1fbbf4c2b979b"
	goldenCompactDigest = "0e1c2df45acf74dbac9a40e02418a3a9ba2b5f02e0d0e929f0f71b010b0c421a"
	goldenHeapSHA256    = "732b8717b8ccf8690a1b76108d4bce04e150c701306f8897603d0bcff46e8671"
	goldenWALSHA256     = "e877aebc1767fca31e0c3ff10abb0346afb146cccffe50428c1279f4cbbe3b2e"
	goldenHeapV2SHA256  = "b894648d0eee42c38312ea28a683d8bed2c78e55ab0c3ca9d84458e0da99f489"
	goldenHeapV3SHA256  = "869be5db8ac493a144fc3856a40ef7866065e2e1e45a7f4ae2873e9440bd8789"
	goldenHeapV4SHA256  = "718edfcf3e0716e4e5aa474d10aa153118e9d94bcef78251243aca16d0b60023"
)

// wordDigest is the digest's earlier stream, kept so goldenStateDigest still
// proves "same state": each object in ascending OID order as eight-byte
// little-endian words — OID, class, size, root flag, slot count, slots — then
// the OID horizon.
func wordDigest(objs *objstore.Store) string {
	var buf []byte
	objs.ForEach(func(o *objstore.Object) {
		flag := uint64(0)
		if o.Root {
			flag = 1
		}
		for _, w := range []uint64{uint64(o.OID), uint64(o.Class), uint64(o.Size), flag, uint64(len(o.Slots))} {
			buf = le.AppendUint64(buf, w)
		}
		for _, s := range o.Slots {
			buf = le.AppendUint64(buf, uint64(s))
		}
	})
	buf = le.AppendUint64(buf, uint64(objs.NextOID()))
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// checkGoldenState checks that objs holds the golden state, through the old
// word stream, and that digest, what a store reported for it, is the compact
// stream's pinned hash.
func checkGoldenState(t *testing.T, objs *objstore.Store, what string, digest [sha256.Size]byte) {
	t.Helper()
	if got := wordDigest(objs); got != goldenStateDigest {
		t.Errorf("wordDigest = %s, want %s", got, goldenStateDigest)
	}
	if got := hex.EncodeToString(digest[:]); got != goldenCompactDigest {
		t.Errorf("%s = %s, want %s", what, got, goldenCompactDigest)
	}
}

// goldenOps drives the fixed sequence: 1 500 objects in batches of 50 (every
// fifth a rooted 8-slot hub pointing at the four objects after it, the rest
// slotless), a reclaim of one leaf per hub among the first 500 objects, a
// checkpoint, a second round of pointer stores and unroots with a second
// checkpoint (so the image lands on recycled pages), then a WAL tail of
// allocs, sets, a root change and a reclaim that stays unabsorbed.
func goldenOps(t *testing.T, s *Store) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	const n = 1500
	for base := 1; base <= n; base += 50 {
		for i := base; i < base+50; i++ {
			oid := objstore.OID(i)
			if i%5 == 1 {
				must(s.LogAlloc(oid, objstore.ClassModule, 64+i%7, 8))
				must(s.LogRoot(oid, true))
			} else {
				must(s.LogAlloc(oid, objstore.ClassAtomicPart, 100+i%13, 0))
			}
		}
		for i := base; i < base+50; i += 5 {
			for k := 1; k <= 4; k++ {
				must(s.LogSet(objstore.OID(i), k-1, objstore.OID(i+k)))
			}
		}
		must(s.Commit())
	}
	var victims []objstore.OID
	for i := 1; i <= 500; i += 5 {
		must(s.LogSet(objstore.OID(i), 3, objstore.NilOID))
		victims = append(victims, objstore.OID(i+4))
	}
	must(s.LogReclaim(victims))
	must(s.Commit())
	must(s.Checkpoint())

	for i := 501; i <= 1000; i += 5 {
		must(s.LogSet(objstore.OID(i), 7, objstore.OID(i-500)))
		if i%2 == 0 {
			must(s.LogRoot(objstore.OID(i), false))
		}
	}
	must(s.Commit())
	must(s.Checkpoint())

	for i := n + 1; i <= n+40; i++ {
		must(s.LogAlloc(objstore.OID(i), objstore.ClassManual, 10+i%3, i%3))
		if i%3 != 0 {
			must(s.LogSet(objstore.OID(i), 0, objstore.OID(5*(i-n)+1)))
		}
		if i%10 == 0 {
			must(s.Commit())
		}
	}
	must(s.LogRoot(1, false))
	must(s.LogSet(1001, 0, objstore.NilOID))
	must(s.LogReclaim([]objstore.OID{1002}))
	must(s.Commit())
}

func fileSHA256(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenBytes pins "same bytes": the state goldenOps commits and the state
// recovery rebuilds on reopening, each through both digest streams, and the
// SHA-256 of both files — of the files goldenOps writes now, and of the
// format-1, -2 and -3 pairs in testdata/.
func TestGoldenBytes(t *testing.T) {
	// reopen opens the store in dir and checks what it recovers, and that
	// opening it rewrote neither file.
	reopen := func(t *testing.T, dir, heapSHA string, format int) {
		t.Helper()
		s, info := openTemp(t, dir, FsyncAlways)
		defer func() {
			if err := s.Close(); err != nil {
				t.Error(err)
			}
		}()
		checkGoldenState(t, s.Objects(), "RecoveryInfo.Digest", info.Digest)
		if got := s.Digest(); got != info.Digest {
			t.Errorf("reopened Store.Digest() = %x, want %x", got, info.Digest)
		}
		if info.CheckpointSeq != 32 || info.BatchesReplayed != 5 || info.Objects != 1439 || info.TornTail || info.Format != format {
			t.Errorf("recovery = %+v, want format %d", info, format)
		}
		// Reopening a cleanly closed store rewrites nothing.
		for name, want := range map[string]string{heapFile: heapSHA, walFile: goldenWALSHA256} {
			if got := fileSHA256(t, filepath.Join(dir, name)); got != want {
				t.Errorf("after reopen sha256(%s) = %s, want %s", name, got, want)
			}
		}
	}

	t.Run("format=4", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := openTemp(t, dir, FsyncAlways)
		goldenOps(t, s)
		checkGoldenState(t, s.Objects(), "Store.Digest()", s.Digest())
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if got := fileSHA256(t, filepath.Join(dir, heapFile)); got != goldenHeapV4SHA256 {
			t.Errorf("sha256(%s) = %s, want %s", heapFile, got, goldenHeapV4SHA256)
		}
		if got := fileSHA256(t, filepath.Join(dir, walFile)); got != goldenWALSHA256 {
			t.Errorf("sha256(%s) = %s, want %s", walFile, got, goldenWALSHA256)
		}
		// Page for page, the image is the format-3 one but for the metas.
		v4, err := os.ReadFile(filepath.Join(dir, heapFile))
		if err != nil {
			t.Fatal(err)
		}
		v3, err := os.ReadFile(filepath.Join("testdata", "v3", heapFile))
		if err != nil {
			t.Fatal(err)
		}
		if len(v4) != len(v3) || !bytes.Equal(v4[2*PageSize:], v3[2*PageSize:]) {
			t.Errorf("the format-4 heap.db (%d bytes) differs from the format-3 one (%d bytes) past its meta pages", len(v4), len(v3))
		}
		reopen(t, dir, goldenHeapV4SHA256, 4)
	})

	// pinned copies the pair in testdata/sub, checked against its recorded
	// hashes, into a fresh directory and reopens it.
	pinned := func(t *testing.T, sub, heapSHA string, format int) {
		dir := t.TempDir()
		for name, want := range map[string]string{heapFile: heapSHA, walFile: goldenWALSHA256} {
			b, err := os.ReadFile(filepath.Join("testdata", sub, name))
			if err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != want {
				t.Fatalf("%s is not the recorded format-%d file: sha256 %x, want %s", filepath.Join("testdata", sub, name), format, sum, want)
			}
			if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		reopen(t, dir, heapSHA, format)
	}
	t.Run("format=3", func(t *testing.T) { pinned(t, "v3", goldenHeapV3SHA256, 3) })
	t.Run("format=2", func(t *testing.T) { pinned(t, "v2", goldenHeapV2SHA256, 2) })
	t.Run("format=1", func(t *testing.T) { pinned(t, "", goldenHeapSHA256, 1) })
}

// dirtyingFS fills page windows in the pool with 0xFF before every Sync, so
// each checkpoint after a commit borrows a window no checkpoint ever cleared.
type dirtyingFS struct{ FS }

type dirtyingFile struct{ File }

func (fs dirtyingFS) Open(name string) (File, error) {
	f, err := fs.FS.Open(name)
	return dirtyingFile{f}, err
}

func (f dirtyingFile) Sync() error {
	var taken [2]*pageWindow
	for i := range taken {
		taken[i] = windows.Get().(*pageWindow)
		for j := range taken[i].buf {
			taken[i].buf[j] = 0xFF
		}
	}
	for _, w := range taken {
		windows.Put(w)
	}
	return f.File.Sync()
}

// A window a checkpoint borrows may hold anything; the pages it hands out, and
// the meta page written from its first page, are cleared first, so heap.db
// comes out byte for byte as from fresh buffers.
func TestDirtyWindowCannotReachTheFile(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Options{FS: dirtyingFS{OSFS{Dir: dir}}, Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	goldenOps(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fileSHA256(t, filepath.Join(dir, heapFile)); got != goldenHeapV4SHA256 {
		t.Errorf("sha256(%s) = %s after checkpoints through dirty windows, want %s", heapFile, got, goldenHeapV4SHA256)
	}
}
