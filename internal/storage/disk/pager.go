package disk

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"odbgc/internal/objstore"
	"odbgc/internal/simerr"
	"odbgc/internal/storage"
)

// poolPage maps a heap page number into the buffer pool's identifier space.
// The disk backend has a single flat page file, so the partition is always 0.
func poolPage(no uint32) storage.PageID {
	return storage.PageID{Part: 0, Index: int(no)}
}

// readPage reads one full page. A short read of a page the committed image
// references is torn-write corruption.
func readPage(f File, no uint32, buf []byte) error {
	n, err := f.ReadAt(buf[:PageSize], int64(no)*PageSize)
	if n == PageSize {
		return nil
	}
	if err == nil || errors.Is(err, io.EOF) {
		err = fmt.Errorf("short read: %d bytes", n)
	}
	return simerr.WrapTornWrite(fmt.Sprintf("page %d", no), err)
}

// allocPage hands out the lowest free page, extending the file only when
// the free list is empty. Lowest-first keeps the allocation order — and
// therefore every on-disk byte — deterministic.
func (s *Store) allocPage() uint32 {
	if n := len(s.freePages); n > 0 {
		pg := s.freePages[0]
		s.freePages = s.freePages[1:]
		return pg
	}
	pg := s.pageCount
	s.pageCount++
	return pg
}

// checkpointImage is the set of pages a checkpoint writes: page images by
// number, the directory head, and which pages the new image occupies.
type checkpointImage struct {
	pages   map[uint32][]byte
	used    map[uint32]bool
	dirHead uint32
}

// buildCheckpoint serializes the committed state into fresh pages: data
// pages holding object records in ascending OID order, then directory
// pages mapping every OID to its (page, slot). Pages come from the free
// list, so the previous checkpoint's image is never overwritten — a crash
// mid-checkpoint recovers from the old image plus the intact WAL. Every
// object fits a page: nothing wider than MaxSlots enters the mirror.
func (s *Store) buildCheckpoint() *checkpointImage {
	img := &checkpointImage{pages: make(map[uint32][]byte), used: make(map[uint32]bool)}

	// Directory pages fill as the data pages do, one entry per object. An
	// entry does not depend on the number of the page it sits on, so the
	// numbers are allocated only after every data page has its own — the
	// order pages have always left the free list in — and each directory page
	// is then sealed once, with its next pointer in place.
	const perDir = pagePayload / dirEntryLen
	const dirFull = pageHdrLen + perDir*dirEntryLen
	dirs := make([][]byte, 0, (s.mem.objects.Len()+perDir-1)/perDir)
	var (
		data   []byte
		dataNo uint32
		nrecs  uint16
		dir    []byte
	)
	flushData := func() {
		used := uint32(len(data) - pageHdrLen)
		data = data[:PageSize] // zero padding is covered by the CRC
		sealPage(data, pageHdr{kind: kindData, count: nrecs, used: used})
		img.pages[dataNo] = data
		data, nrecs = nil, 0
	}
	s.mem.objects.ForEach(func(oid objstore.OID, o memObj) {
		slots := o.slotList()
		if data != nil && len(data)+objRecLen(len(slots)) > PageSize {
			flushData()
		}
		if data == nil {
			dataNo = s.allocPage()
			img.used[dataNo] = true
			data = make([]byte, pageHdrLen, PageSize)
		}
		if len(dir) == dirFull {
			dirs = append(dirs, dir)
			dir = nil
		}
		if dir == nil {
			dir = make([]byte, pageHdrLen, PageSize)
		}
		dir = le.AppendUint64(dir, uint64(oid))
		dir = le.AppendUint32(dir, dataNo)
		dir = le.AppendUint16(dir, nrecs)

		data = le.AppendUint64(data, uint64(oid))
		root := byte(0)
		if o.root {
			root = 1
		}
		data = append(data, byte(o.class), root)
		data = le.AppendUint32(data, o.size)
		data = le.AppendUint32(data, uint32(len(slots)))
		for _, sl := range slots {
			data = le.AppendUint64(data, uint64(sl))
		}
		nrecs++
	})
	if data != nil {
		flushData()
	}
	if dir != nil {
		dirs = append(dirs, dir)
	}

	dirNos := make([]uint32, len(dirs))
	for i := range dirNos {
		dirNos[i] = s.allocPage()
		img.used[dirNos[i]] = true
	}
	for i, page := range dirs {
		n := (len(page) - pageHdrLen) / dirEntryLen
		next := uint32(0)
		if i+1 < len(dirs) {
			next = dirNos[i+1]
		}
		page = page[:PageSize]
		sealPage(page, pageHdr{kind: kindDir, count: uint16(n), next: next, used: uint32(n * dirEntryLen)})
		img.pages[dirNos[i]] = page
	}
	if len(dirs) > 0 {
		img.dirHead = dirNos[0]
	}
	return img
}

// writeCheckpoint persists an image through the buffer pool. Every page is
// pinned dirty and flushed through the write-back hook, which syncs the WAL
// first — the write-ordering invariant: no page whose contents depend on a
// committed batch reaches disk before that batch's WAL records do.
func (s *Store) writeCheckpoint(img *checkpointImage) error {
	s.ckptPages = img.pages
	defer func() { s.ckptPages = nil }()
	for _, no := range sortedKeys(img.pages) {
		if _, err := s.pool.Pin(poolPage(no), true, true); err != nil {
			return fmt.Errorf("disk: pin checkpoint page %d: %w", no, err)
		}
	}
	for _, pid := range s.pool.DirtyPages() {
		if _, err := s.pool.Flush(pid); err != nil {
			return err
		}
	}
	if len(s.ckptPages) != 0 {
		return fmt.Errorf("disk: %d checkpoint pages left unwritten", len(s.ckptPages))
	}
	return s.syncHeap()
}

// pageWriteback is the buffer pool's write-back hook: WAL first, then the
// page. Evictions during image building and explicit flushes both land here.
func (s *Store) pageWriteback(pid storage.PageID) error {
	page, ok := s.ckptPages[uint32(pid.Index)]
	if !ok {
		return fmt.Errorf("disk: write-back of unknown page %d", pid.Index)
	}
	if err := s.syncWAL(); err != nil {
		return err
	}
	if _, err := s.heap.WriteAt(page, int64(pid.Index)*PageSize); err != nil {
		return fmt.Errorf("disk: write page %d: %w", pid.Index, err)
	}
	delete(s.ckptPages, uint32(pid.Index))
	return nil
}

// loadCheckpoint rebuilds the committed state from the newest valid meta
// slot. Both slots damaged (on a non-empty heap) is unrecoverable; one
// damaged slot falls back to the other, which is the dual-slot design
// absorbing a torn meta write.
func loadCheckpoint(heap File, mem *memState) (m *meta, metaFallback bool, pagesRead int, used map[uint32]bool, err error) {
	used = make(map[uint32]bool)
	size, err := heap.Size()
	if err != nil {
		return nil, false, 0, used, fmt.Errorf("disk: heap size: %w", err)
	}
	if size == 0 {
		return nil, false, 0, used, nil // fresh database
	}
	var buf [PageSize]byte
	var metas [2]*meta
	var metaErrs [2]error
	for no := uint32(0); no < 2; no++ {
		if int64(no+1)*PageSize > size {
			continue
		}
		if err := readPage(heap, no, buf[:]); err != nil {
			metaErrs[no] = err
			continue
		}
		pagesRead++
		metas[no], metaErrs[no] = decodeMeta(buf[:], no)
	}
	best := -1
	for no, mm := range metas {
		if mm != nil && (best < 0 || mm.generation > metas[best].generation) {
			best = no
		}
	}
	if best < 0 {
		damaged := 0
		var derr error
		for _, e := range metaErrs {
			if e != nil {
				damaged++
				derr = e
			}
		}
		if damaged == 2 {
			return nil, false, pagesRead, used, simerr.WrapRecoveryFailed("both meta pages damaged", derr)
		}
		if damaged == 1 {
			// One slot torn, the other never written: a crash tore the
			// very first checkpoint's meta flip. The WAL has not been
			// truncated yet, so checkpoint-less replay loses nothing —
			// and scanWAL's sequence check (batches must start at 1 when
			// there is no checkpoint) refuses the look-alike case where
			// the only meta of a pruned store rotted.
			return nil, true, pagesRead, used, nil
		}
		return nil, false, pagesRead, used, nil // both slots blank: heap never checkpointed
	}
	m = metas[best]
	metaFallback = metaErrs[1-best] != nil
	mem.nextOID = objstore.OID(m.nextOID)

	// Walk the directory chain. A checkpoint lists its objects in ascending
	// OID order and packs them into data pages in that order, so consecutive
	// entries name the same data page until it is exhausted: one data page is
	// held at a time, in one buffer, and each object is decoded straight out
	// of it into the mirror. An image that revisits a page is still read
	// correctly, only with a second read of that page.
	fail := func(what string, err error) (*meta, bool, int, map[uint32]bool, error) {
		return nil, metaFallback, pagesRead, used, simerr.WrapRecoveryFailed(what, err)
	}
	var (
		dir, data [PageSize]byte
		dataNo    uint32   // page held in data; 0 (a meta page) = none
		recOff    []uint16 // offset of each record on that page
	)
	loadData := func(no uint32) error {
		dataNo, recOff = 0, recOff[:0]
		if err := readPage(heap, no, data[:]); err != nil {
			return err
		}
		pagesRead++
		used[no] = true
		hdr, err := openPage(data[:], no)
		if err != nil {
			return err
		}
		if hdr.kind != kindData {
			return fmt.Errorf("page %d: kind %d, want data", no, hdr.kind)
		}
		end := pageHdrLen + int(hdr.used)
		off := pageHdrLen
		for i := 0; i < int(hdr.count); i++ {
			if off+objRecHdrLen > end {
				return fmt.Errorf("page %d: record %d overruns payload", no, i)
			}
			nslots := int(le.Uint32(data[off+14:]))
			if off+objRecLen(nslots) > end {
				return fmt.Errorf("page %d: record %d slots overrun payload", no, i)
			}
			recOff = append(recOff, uint16(off))
			off += objRecLen(nslots)
		}
		dataNo = no
		return nil
	}

	for no := m.dirHead; no != 0; {
		if err := readPage(heap, no, dir[:]); err != nil {
			return fail(fmt.Sprintf("directory page %d", no), err)
		}
		pagesRead++
		used[no] = true
		hdr, err := openPage(dir[:], no)
		if err != nil {
			return fail(fmt.Sprintf("directory page %d", no), err)
		}
		if hdr.kind != kindDir {
			return fail(fmt.Sprintf("directory page %d: kind %d", no, hdr.kind), nil)
		}
		if int(hdr.count)*dirEntryLen > int(hdr.used) {
			return fail(fmt.Sprintf("directory page %d: %d entries overrun payload", no, hdr.count), nil)
		}
		for i := 0; i < int(hdr.count); i++ {
			off := pageHdrLen + i*dirEntryLen
			oid := objstore.OID(le.Uint64(dir[off:]))
			page := le.Uint32(dir[off+8:])
			slot := int(le.Uint16(dir[off+12:]))
			// The table grows to reach any key it is given; the image's own
			// horizon bounds what a directory entry may name.
			if oid.IsNil() || oid >= mem.nextOID {
				return fail(fmt.Sprintf("directory entry %v outside (0, %v)", oid, mem.nextOID), nil)
			}
			if page != dataNo || dataNo == 0 {
				if err := loadData(page); err != nil {
					return fail(fmt.Sprintf("object %v", oid), err)
				}
			}
			if slot >= len(recOff) || objstore.OID(le.Uint64(data[recOff[slot]:])) != oid {
				return fail(fmt.Sprintf("directory entry %v → (%d,%d) does not resolve", oid, page, slot), nil)
			}
			rec := data[recOff[slot]:]
			var slots []objstore.OID
			if nslots := int(le.Uint32(rec[14:])); nslots > 0 {
				slots = make([]objstore.OID, nslots)
				for si := range slots {
					slots[si] = objstore.OID(le.Uint64(rec[objRecHdrLen+8*si:]))
				}
			}
			o := memObj{class: objstore.Class(rec[8]), root: rec[9] != 0, size: le.Uint32(rec[10:])}
			if err := mem.insert(oid, o, slots); err != nil {
				return fail("checkpoint directory", err)
			}
		}
		no = hdr.next
	}
	if uint64(mem.objects.Len()) != m.objects {
		return fail(fmt.Sprintf("checkpoint holds %d objects, meta says %d", mem.objects.Len(), m.objects), nil)
	}
	return m, metaFallback, pagesRead, used, nil
}

// rebuildFreeList recomputes the free list from the committed image: every
// page in [2, pageCount) that the image does not reference. Pages written
// for a checkpoint whose meta flip never landed return here automatically.
func (s *Store) rebuildFreeList(used map[uint32]bool) {
	s.freePages = s.freePages[:0]
	for no := uint32(2); no < s.pageCount; no++ {
		if !used[no] {
			s.freePages = append(s.freePages, no)
		}
	}
	slices.Sort(s.freePages)
}

func sortedKeys(m map[uint32][]byte) []uint32 {
	out := make([]uint32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
