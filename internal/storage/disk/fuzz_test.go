package disk

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strings"
	"testing"

	"odbgc/internal/objstore"
	"odbgc/internal/simerr"
	"odbgc/internal/storage"
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
	f.Add(farOIDWAL()) // intact records, a key replay must refuse to reach for
	f.Fuzz(func(t *testing.T, data []byte) {
		objs := objstore.NewStore()
		scan, err := scanWAL(data, 0, objs)
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
		d1 := digest(objs)
		objs2 := objstore.NewStore()
		scan2, err := scanWAL(data[:scan.tail], 0, objs2)
		if err != nil {
			t.Fatalf("re-scan of accepted prefix failed: %v", err)
		}
		if scan2.torn {
			t.Fatalf("accepted prefix reports a tear at %d", scan2.tornAt)
		}
		if scan2.tail != scan.tail || scan2.batches != scan.batches || scan2.lastSeq != scan.lastSeq {
			t.Fatalf("re-scan diverged: %+v vs %+v", scan2, scan)
		}
		if d2 := digest(objs2); d2 != d1 {
			t.Fatalf("re-scan state diverged")
		}
	})
}

// smallImage returns the heap.db of a real image three data pages long: 27
// objects of 100 slots, nine to a page, every third rooted and each pointing
// at the one before it. It is the second checkpoint, one batch (a root flip)
// after the first, so the first image's pages are free and page 1 holds the
// older meta slot, as in the pinned images in testdata/. The WAL it leaves is
// empty, so the older image cannot stand in for a damaged newer one.
func smallImage(tb testing.TB) []byte {
	tb.Helper()
	fs := memFS{}
	s, _, err := Open(Options{FS: fs, Fsync: FsyncNever})
	if err != nil {
		tb.Fatal(err)
	}
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	for oid := objstore.OID(1); oid <= 27; oid++ {
		must(s.LogAlloc(oid, objstore.ClassModule, 40+int(oid), 100))
		must(s.LogRoot(oid, oid%3 == 0))
		must(s.LogSet(oid, int(oid), oid-1))
	}
	must(s.Commit())
	must(s.Checkpoint())
	must(s.LogRoot(1, true))
	must(s.Commit())
	must(s.Checkpoint())
	must(s.Close())
	return fs[heapFile].data
}

// reseal restamps the CRC of the page no of heap, so that damage written into
// it reaches the loader instead of the checksum.
func reseal(heap []byte, no uint32) {
	page := heap[int(no)*PageSize:][:PageSize]
	le.PutUint32(page, crc32.Checksum(page[4:], castagnoli))
}

// stateImage returns a real image with a state chain, as WriteImage writes a
// simulator's checkpoint: 40 objects of two slots placed by a storage manager
// on 256-byte pages, every fourth rooted and every fifth flagged oracle-dead,
// some pages collector-dirty, and four records, the last one long enough to
// carry the state chain onto a second page. It returns the image and the
// manager's state.
func stateImage(tb testing.TB) (img, state []byte) {
	tb.Helper()
	objs := objstore.NewStore()
	m, err := storage.NewManager(storage.Config{PageSize: 256, PagesPerPartition: 4, BufferPages: 3})
	if err != nil {
		tb.Fatal(err)
	}
	m.UseStore(objs)
	for oid := objstore.OID(1); oid <= 40; oid++ {
		o, err := objs.CreateWithOID(oid, objstore.ClassAtomicPart, 60+int(oid%7), 2)
		if err != nil {
			tb.Fatal(err)
		}
		o.Slots[0], o.Root, o.Dead = oid-1, oid%4 == 0, oid%5 == 0
		if _, err := m.Allocate(oid, int(o.Size)); err != nil {
			tb.Fatal(err)
		}
		if oid%9 == 0 {
			m.SetIOClass(storage.IOGC)
			if err := m.Touch(oid-3, true); err != nil {
				tb.Fatal(err)
			}
			m.SetIOClass(storage.IOApp)
		}
	}
	img, err = WriteImage(objs, m, []byte("heap"), []byte("policy"), []byte("selection"), bytes.Repeat([]byte("run"), 3000))
	if err != nil {
		tb.Fatal(err)
	}
	return img, m.AppendState(nil)
}

// newestMeta decodes both meta slots of heap and returns the newer one and its
// slot, or nil when neither decodes.
func newestMeta(heap []byte) (*meta, int) {
	var metas [2]*meta
	for no := range metas {
		metas[no], _ = decodeMeta(heap[no*PageSize:][:PageSize], uint32(no))
	}
	if metas[0] == nil || (metas[1] != nil && metas[1].generation > metas[0].generation) {
		return metas[1], 1
	}
	return metas[0], 0
}

// imageChain returns the pages of the chains the newest meta slot of heap
// names, in order — the data pages of formats 2 to 4 and then the state
// pages of format 4, format 1's directory pages — and the image's page count.
func imageChain(tb testing.TB, heap []byte) (chain []uint32, pageCount uint32) {
	tb.Helper()
	m, _ := newestMeta(heap)
	if m == nil {
		tb.Fatal("no meta slot decodes")
	}
	for _, head := range []uint32{m.dirHead, m.stateHead} {
		for no := head; no != 0; no = le.Uint32(heap[int(no)*PageSize+7:]) {
			chain = append(chain, no)
		}
	}
	return chain, m.pageCount
}

// restamp rewrites the newest meta slot of heap with the sum of the chains it
// names as heap now holds them, so that damage written into an image page
// reaches the loader's other checks instead of the sum. The walk stops where
// the loader would refuse a chain. A meta that does not decode is left as it is.
func restamp(heap []byte) {
	m, slot := newestMeta(heap)
	if m == nil {
		return
	}
	m.sum = sumBasis
	seen := map[uint32]bool{}
	for _, head := range []uint32{m.dirHead, m.stateHead} {
		for no := head; no >= 2 && no < m.pageCount && !seen[no] && int(no+1)*PageSize <= len(heap); no = le.Uint32(heap[int(no)*PageSize+7:]) {
			seen[no] = true
			m.sum = foldPage(m.sum, no, le.Uint32(heap[int(no)*PageSize:]))
		}
	}
	encodeMeta(heap[slot*PageSize:], *m)
}

// FuzzLoadImage writes arbitrary bytes into one page of a small real image —
// header or payload, past the CRC, which is then restamped, and with stamp set
// the meta's image sum with it — and loads it. Without state, the image is
// smallImage and the load is recovery: Open must succeed or fail as recovery
// failure or torn write, never panic or hang; an image it accepts must
// checkpoint and reopen to the state it recovered; and without stamp, a
// changed page of the newer image must be refused: the sum catches it, and the
// older image cannot stand in (the heap has no WAL to cover the batch between
// them). The meta slots are not written into: their damage is the dual-slot
// fallback's, tested by the torn-flip tests. With state, the image is
// stateImage, its one meta page can be written into too, and the load is
// ReadImage's: it must succeed or fail, never panic or hang; an image it
// accepts must write back, through WriteImage, to one that reads back and
// writes back to the same bytes; and without stamp, a changed page must be
// refused.
func FuzzLoadImage(f *testing.F) {
	heap := smallImage(f)
	chain, pageCount := imageChain(f, heap)
	stateHeap, state := stateImage(f)
	stateChain, _ := imageChain(f, stateHeap)
	next := func(no uint32) []byte { return le.AppendUint32(nil, no) }
	// page is the fuzz's page argument that picks page no; an offset
	// argument counts from the end of the CRC.
	page := func(no uint32) uint8 { return uint8(no - 2) }
	f.Add(page(chain[0]), uint16(5-4), []byte{0, 0, byte(chain[0]), 0, 0, 0}, true, false) // no records, and next names itself
	f.Add(page(chain[1]), uint16(7-4), next(chain[0]), true, false)                        // a two-page cycle
	f.Add(page(chain[0]), uint16(7-4), next(1), true, false)                               // a meta page
	f.Add(page(chain[0]), uint16(7-4), next(pageCount), true, false)                       // a page beyond the image
	f.Add(page(chain[0]), uint16(pageHdrLen+14-4), []byte{0xff, 0xff, 0, 0}, true, false)  // a record overrunning its page
	f.Add(page(chain[1]), uint16(pageHdrLen-4), []byte{1}, true, false)                    // an OID below the previous page's
	f.Add(page(chain[1]), uint16(pageHdrLen+objRecHdrLen-4), []byte{0x7f}, false, false)   // a slot changed under the old sum
	for _, d := range stateDamage(f, stateHeap, state) {
		f.Add(d.pg, d.off, d.data, d.stamp, true)
	}
	f.Fuzz(func(t *testing.T, pg uint8, off uint16, data []byte, stamp, state bool) {
		base, in, no := heap, chain, 2+uint32(pg)%uint32(len(heap)/PageSize-2)
		if state {
			base, in, no = stateHeap, stateChain, 1+uint32(pg)%uint32(len(stateHeap)/PageSize-1)
		}
		img := slices.Clone(base)
		copy(img[int(no)*PageSize:][:PageSize][4+int(off)%(PageSize-4):], data)
		reseal(img, no)
		if stamp {
			restamp(img)
		}
		changed := !bytes.Equal(img[int(no)*PageSize:][:PageSize], base[int(no)*PageSize:][:PageSize])
		refuse := !stamp && changed && slices.Contains(in, no)
		if state {
			loadState(t, img, refuse)
			return
		}
		fs := memFS{heapFile: &memFile{data: img}}
		s, info, err := Open(Options{FS: fs, Fsync: FsyncNever})
		if err != nil {
			if !errors.Is(err, simerr.ErrRecoveryFailed) && !errors.Is(err, simerr.ErrTornWrite) {
				t.Fatalf("open failed outside the taxonomy: %v", err)
			}
			return
		}
		if refuse {
			t.Fatalf("page %d of the image changed under its old sum, and the image was accepted", no)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("checkpoint of an accepted image: %v", err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, info2, err := Open(Options{FS: fs, Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("reopen after checkpointing an accepted image: %v", err)
		}
		defer s2.Close()
		if info2.Digest != info.Digest {
			t.Fatalf("an accepted image did not checkpoint to the state it recovered")
		}
	})
}

// damage is one write FuzzLoadImage makes into a page of an image, and a
// piece of the refusal it must meet.
type damage struct {
	name  string
	pg    uint8
	off   uint16
	data  []byte
	stamp bool
	want  string
}

// stateDamage is the damage FuzzLoadImage seeds into stateImage's image img,
// of manager state state, where pg picks page pg+1: 0 is the meta. The
// manager's state starts the first state page: geometry and partition count,
// 16 bytes; each partition's cursor and used bytes; each object's PartPlus1
// and Offset; the frames; the collector-dirty pages; counters, class and
// target; then the records, each behind its length.
func stateDamage(tb testing.TB, img, state []byte) []damage {
	m, _ := newestMeta(img)
	chain, _ := imageChain(tb, img)
	first := uint8(m.stateHead - 1)
	parts := int(le.Uint32(state[12:]))
	placements := 16 + 8*parts
	frames := placements + 8*int(m.objects)
	u32 := func(v uint32) []byte { return le.AppendUint32(nil, v) }
	at := func(off int) uint16 { return uint16(pageHdrLen + off - 4) }
	return []damage{
		{"a placement past its partition's cursor", first, at(16), u32(1), true, "past partition 0's cursor 1"},
		{"two objects overlapping in one partition", first, at(placements + 8 + 4), u32(le.Uint32(state[placements+4:])), true, "overlap in partition 0"},
		{"a frame naming a page no partition has", first, at(frames + 4), u32(uint32(parts)), true, "no partition has the page"},
		{"a truncated control record", first, at(len(state) + 4 + len("heap")), u32(1 << 20), true, "state record 1 overruns"},
		{"a stateHead that names a data page", 0, at(56), u32(chain[0]), true, "reached twice"},
		{"a record changed under the old sum", first, at(len(state) + 2), []byte{0x7f}, false, "did not land"},
	}
}

// TestStateImageDamageIsRefused: each damage FuzzLoadImage seeds into an
// image with a state chain is refused, by the check it was written for.
func TestStateImageDamageIsRefused(t *testing.T) {
	img, state := stateImage(t)
	if _, _, _, err := ReadImage(img); err != nil {
		t.Fatalf("sound image refused: %v", err)
	}
	for _, d := range stateDamage(t, img, state) {
		bad := slices.Clone(img)
		no := 1 + uint32(d.pg)
		copy(bad[int(no)*PageSize+4+int(d.off):], d.data)
		reseal(bad, no)
		if d.stamp {
			restamp(bad)
		}
		if _, _, _, err := ReadImage(bad); err == nil || !strings.Contains(err.Error(), d.want) {
			t.Errorf("%s: ReadImage = %v, want an error containing %q", d.name, err, d.want)
		}
	}
}

// loadState is FuzzLoadImage's load of an image with a state chain.
func loadState(t *testing.T, img []byte, refuse bool) {
	objs, m, recs, err := ReadImage(img)
	if err != nil {
		return
	}
	if refuse {
		t.Fatal("an image page changed under its old sum, and the image was read")
	}
	again, err := WriteImage(objs, m, recs...)
	if err != nil {
		t.Fatalf("an image that read did not write back: %v", err)
	}
	objs, m, recs, err = ReadImage(again)
	if err != nil {
		t.Fatalf("an image written back did not read: %v", err)
	}
	if third, err := WriteImage(objs, m, recs...); err != nil || !bytes.Equal(third, again) {
		t.Fatalf("an image written back read to another state (%v)", err)
	}
}

// digestSpec is one object of FuzzDigestStream's spec: the OID gap after the
// previous object, less one; the class; the size; the slot count and root bit
// packed as writeDigestStream packs them; then the slots' values, eight bytes
// each, as many as the spec holds.
func digestSpec(gap uint16, class objstore.Class, size uint32, nslots int, root bool) []byte {
	spec := le.AppendUint16(nil, gap)
	spec = append(spec, byte(class))
	spec = le.AppendUint32(spec, size)
	packed := uint16(nslots) << 1
	if root {
		packed |= 1
	}
	return le.AppendUint16(spec, packed)
}

// decodeDigestStream parses writeDigestStream's output back into the objects,
// in order, and the horizon. It is the proof the stream is one-to-one: a
// stream it decodes names exactly one state.
func decodeDigestStream(stream []byte) ([]ObjectState, objstore.OID, error) {
	if len(stream) < 8 {
		return nil, 0, fmt.Errorf("%d bytes, shorter than the horizon", len(stream))
	}
	body, horizon := stream[:len(stream)-8], objstore.OID(le.Uint64(stream[len(stream)-8:]))
	uvarint := func() (uint64, error) {
		v, n := binary.Uvarint(body)
		if n <= 0 {
			return 0, fmt.Errorf("bad uvarint at %d bytes before the horizon", len(body))
		}
		body = body[n:]
		return v, nil
	}
	var objs []ObjectState
	prev := objstore.OID(0)
	for len(body) > 0 {
		delta, err := uvarint()
		if err != nil || delta == 0 {
			return nil, 0, fmt.Errorf("after %v: delta %d, %v", prev, delta, err)
		}
		o := ObjectState{OID: prev + objstore.OID(delta)}
		if len(body) == 0 {
			return nil, 0, fmt.Errorf("%v: no class byte", o.OID)
		}
		o.Class, body = objstore.Class(body[0]), body[1:]
		size, err := uvarint()
		if err != nil {
			return nil, 0, err
		}
		packed, err := uvarint()
		if err != nil {
			return nil, 0, err
		}
		o.Size, o.Root = int(size), packed&1 == 1
		if n := packed >> 1; n > uint64(len(body))/8 {
			return nil, 0, fmt.Errorf("%v: %d slots, %d bytes left", o.OID, n, len(body))
		}
		for range packed >> 1 {
			o.Slots, body = append(o.Slots, objstore.OID(le.Uint64(body))), body[8:]
		}
		objs, prev = append(objs, o), o.OID
	}
	return objs, horizon, nil
}

// FuzzDigestStream builds a state from spec (a run of digestSpec objects,
// the slot count taken modulo MaxSlots+1) and a horizon, and demands that the
// digest stream decodes back to it — every object, class, size, slot and root
// flag, and the horizon — and that the digest is SHA-256 of that stream.
func FuzzDigestStream(f *testing.F) {
	f.Add([]byte(nil), uint64(1)<<40)                                                            // an empty store with a raised horizon
	f.Add(append(digestSpec(0, 1, 10, 0, false), digestSpec(300, 2, 20, 0, true)...), uint64(0)) // a multi-byte delta
	f.Add(digestSpec(6, objstore.ClassModule, math.MaxUint32, 1, false), uint64(9))              // the largest size
	f.Add(append(digestSpec(0, objstore.ClassAssembly, 100, MaxSlots, true), bytes.Repeat([]byte{0xa5}, 8*MaxSlots)...), uint64(0))
	f.Add(digestSpec(2, 255, 128, 0, false), uint64(0)) // the largest class
	// Each varint of a record's head on both sides of a length step: OID gaps
	// of 127 and 128, sizes of 127, 128, 16 383 and 16 384, packed counts of
	// 127 (63 slots and the root bit) and 128 (64 slots). A record's slot
	// values are the spec bytes after it, so only the last two have slots.
	f.Add(slices.Concat(
		digestSpec(126, 1, 127, 0, false), digestSpec(127, 2, 100, 0, false),
		digestSpec(0, 3, 128, 0, false), digestSpec(0, 4, 16383, 0, false),
		digestSpec(0, 5, 16384, 0, true), digestSpec(0, 6, 100, 63, true),
		bytes.Repeat([]byte{1}, 8*63), digestSpec(0, 7, 100, 64, false),
	), uint64(0))
	f.Add(digestSpec(299, objstore.ClassAssembly, 70_000, 100, true), uint64(0)) // gap, size and packed count all multi-byte
	f.Fuzz(func(t *testing.T, spec []byte, horizon uint64) {
		objs := objstore.NewStore()
		oid := objstore.OID(0)
		for len(spec) >= 9 {
			oid += 1 + objstore.OID(le.Uint16(spec))
			packed := le.Uint16(spec[7:])
			o, err := objs.CreateWithOID(oid, objstore.Class(spec[2]), int(le.Uint32(spec[3:])), int(packed>>1)%(MaxSlots+1))
			if err != nil {
				t.Fatal(err)
			}
			if packed&1 == 1 {
				if err := objs.AddRoot(oid); err != nil {
					t.Fatal(err)
				}
			}
			spec = spec[9:]
			for k := range o.Slots {
				o.Slots[k] = oid
				if len(spec) >= 8 {
					o.Slots[k], spec = objstore.OID(le.Uint64(spec)), spec[8:]
				}
			}
		}
		objs.AdvanceNextOID(objstore.OID(horizon))

		var stream bytes.Buffer
		writeDigestStream(&stream, objs)
		if digest(objs) != sha256.Sum256(stream.Bytes()) {
			t.Fatal("the digest is not SHA-256 of the digest stream")
		}
		got, next, err := decodeDigestStream(stream.Bytes())
		if err != nil {
			t.Fatalf("decoding the digest stream: %v", err)
		}
		if next != objs.NextOID() {
			t.Errorf("decoded horizon %v, want %v", next, objs.NextOID())
		}
		if len(got) != objs.Len() {
			t.Fatalf("decoded %d objects, want %d", len(got), objs.Len())
		}
		i := 0
		objs.ForEach(func(o *objstore.Object) {
			d := got[i]
			if d.OID != o.OID || d.Class != o.Class || d.Size != int(o.Size) || d.Root != o.Root || !slices.Equal(d.Slots, o.Slots) {
				t.Errorf("object %d decoded as %v class %d size %d root %v with %d slots, want %v class %d size %d root %v with %d slots (slots equal: %v)",
					i, d.OID, d.Class, d.Size, d.Root, len(d.Slots), o.OID, o.Class, o.Size, o.Root, len(o.Slots), slices.Equal(d.Slots, o.Slots))
			}
			i++
		})
	})
}
