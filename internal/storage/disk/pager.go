package disk

import (
	"errors"
	"fmt"
	"io"
	"slices"

	"odbgc/internal/objstore"
	"odbgc/internal/simerr"
)

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

// checkpointImage is what a checkpoint leaves behind besides its pages: which
// pages the new image occupies, and the directory head.
type checkpointImage struct {
	used    map[uint32]bool
	dirHead uint32
}

// writeRuns writes pages, held back to back in buf, to the page numbers nos:
// one write per run of consecutive numbers. allocPage hands out the lowest
// free page first, so pages filled one after the other mostly are neighbours
// in the file too. A short write is a failed one.
func writeRuns(heap File, nos []uint32, buf []byte) error {
	for i := 0; i < len(nos); {
		j := i + 1
		for j < len(nos) && nos[j] == nos[j-1]+1 {
			j++
		}
		run := buf[i*PageSize : j*PageSize]
		n, err := heap.WriteAt(run, int64(nos[i])*PageSize)
		if err == nil && n != len(run) {
			err = io.ErrShortWrite
		}
		if err != nil {
			return fmt.Errorf("disk: write pages %d-%d: %w", nos[i], nos[j-1], err)
		}
		i = j
	}
	return nil
}

// windowPages bounds the buffer data pages are filled in: large enough that an
// image is a few dozen writes where it used to be one per page, small enough
// to stay in the processor's cache while it is filled, checksummed and
// written. Anything from 8 to 128 pages measures the same; a buffer the size
// of the whole image does not — 8 MB of fresh memory per checkpoint cost more
// to fault in and clear than its writes saved.
const windowPages = 32

// pageWindow holds the data pages of an image between being filled and being
// written: a buffer of at most windowPages pages, allocated for the checkpoint
// and released with it, that hands out zeroed pages one after the other and
// writes out what it holds when it is full.
type pageWindow struct {
	heap File
	buf  []byte
	nos  []uint32 // numbers of the pages handed out and not yet written
}

// next returns a zeroed page that will be written to page number no, for the
// caller to fill and seal before it asks for another.
func (w *pageWindow) next(no uint32) ([]byte, error) {
	if len(w.nos)*PageSize == len(w.buf) {
		if err := w.flush(); err != nil {
			return nil, err
		}
	}
	page := w.buf[len(w.nos)*PageSize:][:PageSize]
	clear(page)
	w.nos = append(w.nos, no)
	return page, nil
}

// flush writes out the pages handed out so far.
func (w *pageWindow) flush() error {
	err := writeRuns(w.heap, w.nos, w.buf)
	w.nos = w.nos[:0]
	return err
}

// writeCheckpoint serializes the committed state into fresh pages and writes
// them: data pages holding object records in ascending OID order, which go out
// through a window as they fill, then directory pages mapping every OID to its
// (page, slot). Pages come from the free list, so the previous checkpoint's
// image is never overwritten — a crash mid-checkpoint recovers from the old
// image plus the intact WAL. This is the only place image pages are written,
// so the write-ordering invariant lives at its head: no page whose contents
// depend on a committed batch reaches disk before that batch's WAL records do.
// Every object fits a page: nothing wider than MaxSlots enters the mirror.
func (s *Store) writeCheckpoint() (*checkpointImage, error) {
	if err := s.syncWAL(); err != nil {
		return nil, err
	}
	objects := s.mem.objects.Len()
	img := &checkpointImage{used: make(map[uint32]bool, len(s.usedPages))} // about as many pages as the last image
	take := func() uint32 {
		no := s.allocPage()
		img.used[no] = true
		return no
	}

	// Directory pages fill as the data pages do, one entry per object. An
	// entry does not depend on the number of the page it sits on, so the
	// directory — 14 bytes an object — is built whole beside the window, and
	// its pages are numbered only after every data page has its number (the
	// order pages have always left the free list in), then sealed, each with
	// its next pointer in place, and written in runs of their own.
	dirs := make([]byte, (objects+dirPerPage-1)/dirPerPage*PageSize)
	dirOff, dirLeft := pageHdrLen, dirPerPage
	// A data page holds at least one record.
	datas := &pageWindow{heap: s.heap, buf: make([]byte, min(objects, windowPages)*PageSize)}
	var (
		data   []byte // the data page being filled, nil before the first
		dataNo uint32
		off    int // fill offset on data
		nrecs  uint16
		err    error
	)
	sealData := func() {
		sealPage(data, pageHdr{kind: kindData, count: nrecs, used: uint32(off - pageHdrLen)})
	}
	s.mem.objects.ForEach(func(oid objstore.OID, o memObj) {
		if err != nil {
			return
		}
		slots := o.slotList()
		if data == nil || off+objRecLen(len(slots)) > PageSize {
			if data != nil {
				sealData()
			}
			dataNo = take()
			if data, err = datas.next(dataNo); err != nil {
				return
			}
			off, nrecs = pageHdrLen, 0
		}
		if dirLeft == 0 {
			dirOff += PageSize - dirPerPage*dirEntryLen // on to the next page's payload
			dirLeft = dirPerPage
		}
		le.PutUint64(dirs[dirOff:], uint64(oid))
		le.PutUint32(dirs[dirOff+8:], dataNo)
		le.PutUint16(dirs[dirOff+12:], nrecs)
		dirOff += dirEntryLen
		dirLeft--

		rec := data[off:]
		le.PutUint64(rec, uint64(oid))
		rec[8] = byte(o.class)
		if o.root {
			rec[9] = 1
		}
		le.PutUint32(rec[10:], o.size)
		le.PutUint32(rec[14:], uint32(len(slots)))
		for i, sl := range slots {
			le.PutUint64(rec[objRecHdrLen+8*i:], uint64(sl))
		}
		off += objRecLen(len(slots))
		nrecs++
	})
	if err != nil {
		return nil, err
	}
	if data != nil {
		sealData()
	}
	if err := datas.flush(); err != nil {
		return nil, err
	}

	dirNos := make([]uint32, len(dirs)/PageSize)
	for i := range dirNos {
		dirNos[i] = take()
	}
	for i := range dirNos {
		n := min(dirPerPage, objects-i*dirPerPage)
		next := uint32(0)
		if i+1 < len(dirNos) {
			next = dirNos[i+1]
		}
		sealPage(dirs[i*PageSize:][:PageSize], pageHdr{kind: kindDir, count: uint16(n), next: next, used: uint32(n * dirEntryLen)})
	}
	if len(dirNos) > 0 {
		img.dirHead = dirNos[0]
	}
	if err := writeRuns(s.heap, dirNos, dirs); err != nil {
		return nil, err
	}
	return img, s.syncHeap()
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
