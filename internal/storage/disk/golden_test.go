package disk

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"odbgc/internal/objstore"
)

// The constants below were recorded at the commit before the committed mirror
// became a table (PR 14's parent). The mirror is an in-memory arrangement
// only: whatever holds it, the same operations must leave the same bytes on
// disk and the same digests. A change that moves any of them has changed the
// on-disk format, the checkpoint's page-allocation or write order, or the
// canonical digest stream, and has to say so.
const (
	goldenStateDigest = "d19b4126bd0cb5d3369de505f241b1afee934dffb1d6c48305e1fbbf4c2b979b"
	goldenHeapSHA256  = "732b8717b8ccf8690a1b76108d4bce04e150c701306f8897603d0bcff46e8671"
	goldenWALSHA256   = "e877aebc1767fca31e0c3ff10abb0346afb146cccffe50428c1279f4cbbe3b2e"
)

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

// TestGoldenBytes pins "same bytes": the digest of the committed state, the
// digest recovery reports after reopening, and the SHA-256 of both files.
func TestGoldenBytes(t *testing.T) {
	dir := t.TempDir()
	s, _ := openTemp(t, dir, FsyncAlways)
	goldenOps(t, s)
	live := s.Digest()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(live[:]); got != goldenStateDigest {
		t.Errorf("Store.Digest() = %s, want %s", got, goldenStateDigest)
	}
	if got := fileSHA256(t, filepath.Join(dir, heapFile)); got != goldenHeapSHA256 {
		t.Errorf("sha256(%s) = %s, want %s", heapFile, got, goldenHeapSHA256)
	}
	if got := fileSHA256(t, filepath.Join(dir, walFile)); got != goldenWALSHA256 {
		t.Errorf("sha256(%s) = %s, want %s", walFile, got, goldenWALSHA256)
	}

	s2, info := openTemp(t, dir, FsyncAlways)
	defer func() {
		if err := s2.Close(); err != nil {
			t.Error(err)
		}
	}()
	if got := hex.EncodeToString(info.Digest[:]); got != goldenStateDigest {
		t.Errorf("RecoveryInfo.Digest = %s, want %s", got, goldenStateDigest)
	}
	if got := s2.Digest(); got != live {
		t.Errorf("reopened Store.Digest() = %x, want %x", got, live)
	}
	if info.CheckpointSeq != 32 || info.BatchesReplayed != 5 || info.Objects != 1439 || info.TornTail {
		t.Errorf("recovery = %+v", info)
	}
	// Reopening a cleanly closed store rewrites nothing.
	if got := fileSHA256(t, filepath.Join(dir, heapFile)); got != goldenHeapSHA256 {
		t.Errorf("after reopen sha256(%s) = %s, want %s", heapFile, got, goldenHeapSHA256)
	}
	if got := fileSHA256(t, filepath.Join(dir, walFile)); got != goldenWALSHA256 {
		t.Errorf("after reopen sha256(%s) = %s, want %s", walFile, got, goldenWALSHA256)
	}
}
