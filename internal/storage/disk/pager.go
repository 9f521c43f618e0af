package disk

import (
	"errors"
	"fmt"
	"io"
	"sync"

	"odbgc/internal/objstore"
	"odbgc/internal/simerr"
)

// readPage reads one full page. A page the committed image references that
// cannot be read whole is torn-write corruption.
func readPage(f File, no uint32, buf []byte) error {
	if err := readFull(f, buf[:PageSize], int64(no)*PageSize); err != nil {
		return simerr.WrapTornWrite(fmt.Sprintf("page %d", no), err)
	}
	return nil
}

// readFull reads len(p) bytes at off. A device may return fewer, even with
// io.EOF, and the rest on the next call, so a short read is resumed, up to 8
// times; only one that makes no progress, where the file ends, is short.
func readFull(f File, p []byte, off int64) error {
	for got, try := 0, 0; got < len(p); try++ {
		n, err := f.ReadAt(p[got:], off+int64(got))
		if got += n; got < len(p) && (n == 0 || try == 8) {
			if err == nil || errors.Is(err, io.EOF) {
				err = fmt.Errorf("short read: %d of %d bytes", got, len(p))
			}
			return err
		}
	}
	return nil
}

// allocPage hands out the lowest free page, extending the file only when
// the free list is empty. Lowest-first keeps the allocation order — and
// therefore every on-disk byte — deterministic; the list is kept highest
// first, so popping its last page leaves its capacity for the next rebuild.
func (s *Store) allocPage() uint32 {
	if n := len(s.freePages); n > 0 {
		pg := s.freePages[n-1]
		s.freePages = s.freePages[:n-1]
		return pg
	}
	pg := s.pageCount
	s.pageCount++
	return pg
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
// written: a buffer of windowPages pages, borrowed from windows for the
// checkpoint and returned after its meta page, that hands out zeroed pages one
// after the other and writes out what it holds when it is full.
type pageWindow struct {
	buf []byte
	nos []uint32 // numbers of the pages handed out and not yet written
}

// windows lends checkpoints their page window. A window left in the pool is
// freed once two garbage collections pass without a checkpoint taking it.
var windows = sync.Pool{New: func() any {
	return &pageWindow{buf: make([]byte, windowPages*PageSize), nos: make([]uint32, 0, windowPages)}
}}

// next returns a zeroed page that will be written to page number no of heap,
// for the caller to fill and seal before it asks for another. Clearing it
// keeps whatever a borrowed window held out of the file.
func (w *pageWindow) next(heap File, no uint32) ([]byte, error) {
	if len(w.nos)*PageSize == len(w.buf) {
		if err := w.flush(heap); err != nil {
			return nil, err
		}
	}
	page := w.buf[len(w.nos)*PageSize:][:PageSize]
	clear(page)
	w.nos = append(w.nos, no)
	return page, nil
}

// flush writes out to heap the pages handed out so far.
func (w *pageWindow) flush(heap File) error {
	err := writeRuns(heap, w.nos, w.buf)
	w.nos = w.nos[:0]
	return err
}

// writeCheckpoint serializes the committed state into fresh pages and writes
// them: data pages holding object records in ascending OID order, then, when
// state is not empty, state pages holding its bytes, each page sealed with the
// number of the next of its chain and folded into the image's sum, which go
// out through a window as they fill. Nothing here waits for them to reach the
// device: Checkpoint's one flush covers them and the meta that vouches for
// them by their sum. Pages come from the free list, so the previous
// checkpoint's image is never overwritten — a crash mid-checkpoint recovers
// from the old image plus the intact WAL. This is the only place image pages
// are written, so the write-ordering invariant lives at its head: no page
// whose contents depend on a committed batch reaches disk before that batch's
// WAL records do. Every object fits a page: nothing wider than MaxSlots
// enters the object store (LogAlloc and replay refuse it, and Heap.Create
// removes an object LogAlloc refused). It returns the first page of each
// chain and the sum, and leaves the pages it occupies in s.spareUsed.
func (s *Store) writeCheckpoint(datas *pageWindow, state []byte) (head, stateHead uint32, sum uint64, err error) {
	if err := s.syncWAL(); err != nil {
		return 0, 0, 0, err
	}
	clear(s.spareUsed)
	sum = sumBasis
	var (
		kind  = uint8(kindData)
		page  []byte // the page being filled, nil before a chain's first
		no    uint32 // its page number
		off   int    // fill offset on page
		nrecs uint16
	)
	// A page is sealed once the number of the page after it is known: it is
	// taken from the free list when that page is started, the order pages
	// have always left the free list in.
	seal := func(next uint32) {
		sealPage(page, pageHdr{kind: kind, count: nrecs, next: next, used: uint32(off - pageHdrLen)})
		sum = foldPage(sum, no, le.Uint32(page))
	}
	// turn starts a page of the chain, sealing the one before it, and stores
	// the chain's first page number in *head.
	turn := func(head *uint32) {
		next := s.allocPage()
		s.spareUsed[next] = true
		if page == nil {
			*head = next
		} else {
			seal(next)
		}
		page, err = datas.next(s.heap, next)
		no, off, nrecs = next, pageHdrLen, 0
	}
	s.objs.ForEach(func(o *objstore.Object) {
		if err != nil {
			return
		}
		if page == nil || off+objRecLen(len(o.Slots)) > PageSize {
			if turn(&head); err != nil {
				return
			}
		}

		rec := page[off:]
		le.PutUint64(rec, uint64(o.OID))
		rec[8] = byte(o.Class)
		if o.Root {
			rec[9] = flagRoot
		}
		if o.Dead && state != nil {
			rec[9] |= flagDead
		}
		le.PutUint32(rec[10:], uint32(o.Size))
		le.PutUint32(rec[14:], uint32(len(o.Slots)))
		for i, sl := range o.Slots {
			le.PutUint64(rec[objRecHdrLen+8*i:], uint64(sl))
		}
		off += objRecLen(len(o.Slots))
		nrecs++
	})
	if err == nil && page != nil {
		seal(0)
	}
	for kind, page = kindState, nil; err == nil && len(state) > 0; state = state[off-pageHdrLen:] {
		if turn(&stateHead); err == nil {
			off += copy(page[off:], state)
		}
	}
	if err != nil {
		return 0, 0, 0, err
	}
	if page != nil {
		seal(0)
	}
	return head, stateHead, sum, datas.flush(s.heap)
}

// loadedImage is what loadCheckpoint recovered from heap.db.
type loadedImage struct {
	m         *meta           // the meta whose image was loaded; nil when none was
	objs      *objstore.Store // the image's objects
	used      map[uint32]bool // the pages it occupies
	pagesRead int
	fallback  bool // the newer meta slot, or its image, could not serve
	// refused is the newer meta when its image failed and the older slot
	// served instead; refusedErr says why. recover accepts the older image
	// only if the WAL still reaches refused.seq.
	refused    *meta
	refusedErr error
	state      []byte // the bytes of the image's state chain; ReadImage decodes them
}

// load folds the image m names into li.
func (li *loadedImage) load(heap File, m *meta) (err error) {
	li.objs.AdvanceNextOID(objstore.OID(m.nextOID))
	if li.state, err = loadImage(heap, m, li.objs, li.used, &li.pagesRead); err == nil {
		li.m = m
	}
	return err
}

// loadCheckpoint rebuilds the committed state from the newest valid meta slot.
// Both slots damaged (on a non-empty heap) is unrecoverable; one damaged slot
// falls back to the other, which is the dual-slot design absorbing a torn
// meta write. So does an intact meta whose image fails to load — a power cut
// that landed the meta before some of its pages, caught by the sum, or rot:
// the older slot's image (or none, if that slot is blank) is loaded instead,
// and the newer meta returned as refused. The older meta is the one returned,
// so the next checkpoint overwrites the refused slot, not the one serving.
func loadCheckpoint(heap File) (*loadedImage, error) {
	li := &loadedImage{objs: objstore.NewStore(), used: make(map[uint32]bool)}
	size, err := heap.Size()
	if err != nil {
		return nil, fmt.Errorf("disk: heap size: %w", err)
	}
	if size == 0 {
		return li, nil // fresh database
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
		li.pagesRead++
		metas[no], metaErrs[no] = decodeMeta(buf[:], no)
		if errors.Is(metaErrs[no], errImageFormat) {
			// Falling back past it to the other slot would quietly drop
			// every batch the newer image absorbed.
			return nil, metaErrs[no]
		}
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
			return nil, simerr.WrapRecoveryFailed("both meta pages damaged", derr)
		}
		// One slot torn, the other never written: a crash tore the very
		// first checkpoint's meta flip. The WAL has not been truncated yet,
		// so checkpoint-less replay loses nothing — and scanWAL's sequence
		// check (batches must start at 1 when there is no checkpoint)
		// refuses the look-alike case where the only meta of a pruned store
		// rotted. Both slots blank: the heap was never checkpointed.
		li.fallback = damaged == 1
		return li, nil
	}
	m, other := metas[best], 1-best
	li.fallback = metaErrs[other] != nil
	err = li.load(heap, m)
	if err == nil {
		return li, nil
	}
	if metaErrs[other] != nil {
		return nil, simerr.WrapRecoveryFailed("checkpoint image", err)
	}
	older := &loadedImage{objs: objstore.NewStore(), used: make(map[uint32]bool), pagesRead: li.pagesRead, fallback: true, refused: m, refusedErr: err}
	if metas[other] != nil {
		if oerr := older.load(heap, metas[other]); oerr != nil {
			return nil, simerr.WrapRecoveryFailed(fmt.Sprintf("checkpoint image (the older one failed too: %v)", oerr), err)
		}
	}
	return older, nil
}

// loadImage folds the image m names into objs, marks every page it reads in
// used and returns the bytes of its state chain, if it has one. A format-2, -3
// or -4 image is a chain of data pages; format 3 on also holds the image to the
// sum its meta carries, and format 4 can add a chain of state pages, summed
// after the data pages. A format-1 image has the
// same data pages, unchained, and a chain of directory pages whose entries
// name them in order; the directory is read only for that order. Either chain
// is taken on no trust: a page reached twice, a meta page, or a page at or
// beyond the image's page count — which rebuildFreeList would hand out again —
// ends the load instead of looping or being believed.
func loadImage(heap File, m *meta, objs *objstore.Store, used map[uint32]bool, pagesRead *int) ([]byte, error) {
	var dir, data [PageSize]byte
	read := func(buf *[PageSize]byte, no uint32, kind uint8) (pageHdr, error) {
		switch {
		case no < 2 || no >= m.pageCount:
			return pageHdr{}, fmt.Errorf("page %d outside the image's pages [2, %d)", no, m.pageCount)
		case used[no]:
			return pageHdr{}, fmt.Errorf("page %d reached twice", no)
		}
		used[no] = true
		if err := readPage(heap, no, buf[:]); err != nil {
			return pageHdr{}, err
		}
		*pagesRead++
		hdr, err := openPage(buf[:], no)
		if err == nil && hdr.kind != kind {
			err = fmt.Errorf("page %d: kind %d, want %d", no, hdr.kind, kind)
		}
		return hdr, err
	}
	var last objstore.OID // the previous record's OID
	sum := uint64(sumBasis)
	loadData := func(no uint32) (next uint32, err error) {
		hdr, err := read(&data, no, kindData)
		if err != nil {
			return 0, err
		}
		sum = foldPage(sum, no, le.Uint32(data[:]))
		return hdr.next, decodeData(data[:], no, hdr, objs, &last)
	}

	if m.format == 1 {
		dataNo := uint32(0) // the data page the last entry named; 0 = none
		for no := m.dirHead; no != 0; {
			hdr, err := read(&dir, no, kindDir)
			if err != nil {
				return nil, err
			}
			if int(hdr.count)*dirEntryLen > int(hdr.used) {
				return nil, fmt.Errorf("directory page %d: %d entries overrun payload", no, hdr.count)
			}
			for i := 0; i < int(hdr.count); i++ {
				if p := le.Uint32(dir[pageHdrLen+i*dirEntryLen+8:]); p != dataNo || dataNo == 0 {
					if _, err := loadData(p); err != nil {
						return nil, err
					}
					dataNo = p
				}
			}
			no = hdr.next
		}
	} else {
		for no := m.dirHead; no != 0; {
			next, err := loadData(no)
			if err != nil {
				return nil, err
			}
			no = next
		}
	}
	var state []byte
	for no := m.stateHead; no != 0; {
		hdr, err := read(&data, no, kindState)
		if err != nil {
			return nil, err
		}
		sum = foldPage(sum, no, le.Uint32(data[:]))
		state = append(state, data[pageHdrLen:pageHdrLen+int(hdr.used)]...)
		no = hdr.next
	}
	if m.format >= 3 && sum != m.sum {
		return nil, fmt.Errorf("image pages sum to %016x, meta says %016x: a page of the image did not land", sum, m.sum)
	}
	if uint64(objs.Len()) != m.objects {
		return nil, fmt.Errorf("image holds %d objects, meta says %d", objs.Len(), m.objects)
	}
	return state, nil
}

// decodeData folds the records of one data page into objs in page order, each
// record's slots straight into the array the object store gives the object. No
// directory vouches for them, so each is held to what a checkpoint writes: it
// lies inside the page's used payload, its OID is above the previous record's
// (*last, carried across pages) and below the image's horizon — the table
// grows to reach any key it is given, so the horizon is what bounds one.
func decodeData(page []byte, no uint32, hdr pageHdr, objs *objstore.Store, last *objstore.OID) error {
	payload := page[:pageHdrLen+int(hdr.used)]
	off := pageHdrLen
	for i := 0; i < int(hdr.count); i++ {
		rec := payload[off:]
		if len(rec) < objRecHdrLen {
			return fmt.Errorf("page %d: record %d overruns payload", no, i)
		}
		nslots := int(le.Uint32(rec[14:]))
		if len(rec) < objRecLen(nslots) {
			return fmt.Errorf("page %d: record %d slots overrun payload", no, i)
		}
		oid := objstore.OID(le.Uint64(rec))
		if oid <= *last || oid >= objs.NextOID() {
			return fmt.Errorf("page %d: record %d is %v, want one in (%v, %v)", no, i, oid, *last, objs.NextOID())
		}
		if rec[9]&^(flagRoot|flagDead) != 0 {
			return fmt.Errorf("page %d: record %d has flags %#x", no, i, rec[9])
		}
		o, err := objs.CreateWithOID(oid, objstore.Class(rec[8]), int(le.Uint32(rec[10:])), nslots)
		if err != nil {
			return fmt.Errorf("page %d: %w", no, err)
		}
		for si := range o.Slots {
			o.Slots[si] = objstore.OID(le.Uint64(rec[objRecHdrLen+8*si:]))
		}
		if rec[9]&flagRoot != 0 {
			_ = objs.AddRoot(oid) // cannot fail: the object was just created
		}
		o.Dead = rec[9]&flagDead != 0
		*last = oid
		off += objRecLen(nslots)
	}
	return nil
}

// rebuildFreeList recomputes the free list, highest page first: every page in
// [2, pageCount) the committed image does not reference. Pages written for a
// checkpoint whose meta flip never landed return here automatically.
func (s *Store) rebuildFreeList(used map[uint32]bool) {
	s.freePages = s.freePages[:0]
	for no := s.pageCount - 1; no >= 2; no-- { // pageCount is at least 2
		if !used[no] {
			s.freePages = append(s.freePages, no)
		}
	}
}
