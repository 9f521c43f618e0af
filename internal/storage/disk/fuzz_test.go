package disk

import (
	"bytes"
	"errors"
	"testing"

	"odbgc/internal/objstore"
	"odbgc/internal/simerr"
)

// walSeed builds a well-formed WAL image: two committed batches and one
// trailing uncommitted record.
func walSeed() []byte {
	var buf []byte
	buf = appendRecord(buf, walOp{kind: recAlloc, oid: 1, class: objstore.ClassModule, size: 100, nslots: 2}, 0)
	buf = appendRecord(buf, walOp{kind: recRoot, oid: 1, on: true}, 0)
	buf = appendRecord(buf, walOp{kind: recCommit}, 1)
	buf = appendRecord(buf, walOp{kind: recSet, oid: 1, slot: 0, dst: 1}, 0)
	buf = appendRecord(buf, walOp{kind: recReclaim, oids: []objstore.OID{1}}, 0)
	buf = appendRecord(buf, walOp{kind: recCommit}, 2)
	buf = appendRecord(buf, walOp{kind: recAlloc, oid: 2, class: objstore.ClassManual, size: 5, nslots: 0}, 0)
	return buf
}

// FuzzScanWAL feeds arbitrary bytes to the recovery scanner. Whatever the
// damage, the scanner must not panic, must stop at a batch boundary, and —
// the lenient re-read property, mirroring the trace reader's fuzz — a
// re-scan of the accepted prefix must reproduce the same state with no
// tear reported.
func FuzzScanWAL(f *testing.F) {
	seed := walSeed()
	f.Add(seed)
	f.Add(seed[:len(seed)-3]) // torn mid-record
	f.Add(seed[:17])          // torn mid-header
	f.Add([]byte{})
	corrupted := bytes.Clone(seed)
	corrupted[30] ^= 0xff
	f.Add(corrupted)
	f.Add(farOIDWAL()) // intact records, a key the mirror must refuse to reach for
	f.Fuzz(func(t *testing.T, data []byte) {
		mem := newMemState()
		scan, err := scanWAL(data, 0, mem)
		if err != nil {
			// Unrecoverable (sequence gap, inconsistent batch, a key or a
			// slot count out of bounds): fine, as long as it did not panic
			// and says what it is.
			if !errors.Is(err, simerr.ErrRecoveryFailed) {
				t.Fatalf("scan failed outside the taxonomy: %v", err)
			}
			return
		}
		if scan.tail < 0 || scan.tail > int64(len(data)) {
			t.Fatalf("tail %d outside image of %d bytes", scan.tail, len(data))
		}
		d1 := mem.digest()
		mem2 := newMemState()
		scan2, err := scanWAL(data[:scan.tail], 0, mem2)
		if err != nil {
			t.Fatalf("re-scan of accepted prefix failed: %v", err)
		}
		if scan2.torn {
			t.Fatalf("accepted prefix reports a tear at %d", scan2.tornAt)
		}
		if scan2.tail != scan.tail || scan2.batches != scan.batches || scan2.lastSeq != scan.lastSeq {
			t.Fatalf("re-scan diverged: %+v vs %+v", scan2, scan)
		}
		if d2 := mem2.digest(); d2 != d1 {
			t.Fatalf("re-scan state diverged")
		}
	})
}
