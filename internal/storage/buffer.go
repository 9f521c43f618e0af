package storage

import (
	"container/list"
	"fmt"
)

// BufferPool is a page-granular LRU cache. It tracks residency, dirty
// state, and reference pins; page contents live with the pool's owner (the
// logical object store for the simulated manager, the pager's frame map for
// the disk backend). The pool is deliberately simple — the paper's buffer
// is a plain LRU sized to one partition (§3.1) — but write-back is
// explicit: a dirty page leaves the pool (eviction) or loses its dirty bit
// (Flush) only through the registered write-back hook, so a disk-backed
// owner can order the physical page write after the WAL append that
// covers it.
type BufferPool struct {
	capacity int
	lru      *list.List               // front = most recently used
	frames   map[PageID]*list.Element // page -> element whose Value is *frame

	// writeback, when non-nil, persists a dirty page's contents. It runs
	// before the page is evicted or marked clean; an error aborts the
	// eviction or flush with the page still resident and dirty. The disk
	// backend's hook is where the write-ordering invariant lives: flush the
	// WAL through the page's recovery LSN, then write the page.
	writeback func(PageID) error
}

type frame struct {
	page  PageID
	dirty bool
	refs  int // pin count; referenced frames are never evicted
}

// PinResult reports what a Pin did, so the Manager can charge I/O.
type PinResult struct {
	Hit       bool
	ReadFault bool   // page was absent and had a disk image to read
	WroteBack bool   // a dirty victim was evicted and written
	Victim    PageID // valid when WroteBack
}

// NewBufferPool returns an LRU pool holding up to capacity pages.
func NewBufferPool(capacity int) (*BufferPool, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("storage: buffer capacity %d must be positive", capacity)
	}
	return &BufferPool{
		capacity: capacity,
		lru:      list.New(),
		frames:   make(map[PageID]*list.Element, capacity),
	}, nil
}

// SetWriteback installs (or, with nil, removes) the dirty-page write-back
// hook. With no hook, evicting or flushing a dirty page only drops the
// dirty bit — the simulated manager's accounting-only behavior.
func (b *BufferPool) SetWriteback(fn func(PageID) error) { b.writeback = fn }

// Capacity returns the pool capacity in pages.
func (b *BufferPool) Capacity() int { return b.capacity }

// Len returns the number of resident pages.
func (b *BufferPool) Len() int { return b.lru.Len() }

// Pin makes the page resident and most-recently-used. dirty marks it dirty;
// fresh indicates the page has no disk image (a brand-new or fully
// rewritten page), so a miss does not cost a read.
//
// On a miss with a full pool, the least-recently-used unreferenced page is
// evicted; if it is dirty, the write-back hook runs first and its error
// aborts the pin. A pool whose every frame is referenced cannot evict and
// the pin fails. Without a write-back hook and without references (the
// simulated manager), Pin never fails.
func (b *BufferPool) Pin(pg PageID, dirty, fresh bool) (PinResult, error) {
	var res PinResult
	// Consecutive operations mostly land on the page just used: it is
	// already in front, and finding it there skips the map lookup.
	if el := b.lru.Front(); el != nil {
		if f := el.Value.(*frame); f.page == pg {
			res.Hit = true
			f.dirty = f.dirty || dirty
			return res, nil
		}
	}
	if el, ok := b.frames[pg]; ok {
		res.Hit = true
		b.lru.MoveToFront(el)
		if dirty {
			el.Value.(*frame).dirty = true
		}
		return res, nil
	}
	if !fresh {
		res.ReadFault = true
	}
	if b.lru.Len() >= b.capacity {
		victim := b.lru.Back()
		for victim != nil && victim.Value.(*frame).refs > 0 {
			victim = victim.Prev()
		}
		if victim == nil {
			return res, fmt.Errorf("storage: buffer pool wedged: all %d frames referenced", b.capacity)
		}
		vf := victim.Value.(*frame)
		if vf.dirty {
			if b.writeback != nil {
				if err := b.writeback(vf.page); err != nil {
					return res, fmt.Errorf("storage: write back %v evicting for %v: %w", vf.page, pg, err)
				}
			}
			res.WroteBack = true
			res.Victim = vf.page
		}
		b.lru.Remove(victim)
		delete(b.frames, vf.page)
		// Recycle the evicted frame: once the pool is full, Pin allocates
		// nothing.
		vf.page, vf.dirty, vf.refs = pg, dirty, 0
		b.frames[pg] = b.lru.PushFront(vf)
		return res, nil
	}
	//lint:allow hotalloc one frame per pool slot while the pool fills; evictions recycle frames
	b.frames[pg] = b.lru.PushFront(&frame{page: pg, dirty: dirty}) //lint:allow hotbox one frame per pool slot while the pool fills
	return res, nil
}

// Ref pins a resident page against eviction, returning false if the page
// is not resident. Each Ref must be paired with an Unref; a referenced
// page stays resident (and its contents stable for the pool's owner) no
// matter what Pin brings in around it.
func (b *BufferPool) Ref(pg PageID) bool {
	el, ok := b.frames[pg]
	if !ok {
		return false
	}
	el.Value.(*frame).refs++
	return true
}

// Unref releases one reference on a resident page. Unreferencing a page
// that is absent or unreferenced is a bug in the pool's owner.
func (b *BufferPool) Unref(pg PageID) error {
	el, ok := b.frames[pg]
	if !ok {
		return fmt.Errorf("storage: unref of non-resident page %v", pg)
	}
	f := el.Value.(*frame)
	if f.refs <= 0 {
		return fmt.Errorf("storage: unref of unreferenced page %v", pg)
	}
	f.refs--
	return nil
}

// Refs returns the pin count of a page (0 if absent).
func (b *BufferPool) Refs(pg PageID) int {
	if el, ok := b.frames[pg]; ok {
		return el.Value.(*frame).refs
	}
	return 0
}

// Contains reports whether the page is resident.
func (b *BufferPool) Contains(pg PageID) bool {
	_, ok := b.frames[pg]
	return ok
}

// IsDirty reports whether the page is resident and dirty.
func (b *BufferPool) IsDirty(pg PageID) bool {
	el, ok := b.frames[pg]
	return ok && el.Value.(*frame).dirty
}

// Flush writes back a resident dirty page through the write-back hook and
// clears its dirty bit, returning true if a write-back happened. The page
// stays resident. An error from the hook leaves the page dirty.
func (b *BufferPool) Flush(pg PageID) (bool, error) {
	el, ok := b.frames[pg]
	if !ok {
		return false, nil
	}
	f := el.Value.(*frame)
	if !f.dirty {
		return false, nil
	}
	if b.writeback != nil {
		if err := b.writeback(pg); err != nil {
			return false, fmt.Errorf("storage: flush %v: %w", pg, err)
		}
	}
	f.dirty = false
	return true, nil
}

// Clean clears the dirty bit of a resident page without invoking the
// write-back hook, returning true if the page was resident and dirty. It
// models a write-back accounted elsewhere (the simulated manager charges
// the I/O itself); disk-backed owners should use Flush.
func (b *BufferPool) Clean(pg PageID) bool {
	el, ok := b.frames[pg]
	if !ok {
		return false
	}
	f := el.Value.(*frame)
	if !f.dirty {
		return false
	}
	f.dirty = false
	return true
}

// Drop discards a resident page without write-back (its disk image is
// obsolete, e.g. freed space after compaction). Returns true if resident.
// Referenced pages cannot be dropped.
func (b *BufferPool) Drop(pg PageID) bool {
	el, ok := b.frames[pg]
	if !ok {
		return false
	}
	if el.Value.(*frame).refs > 0 {
		return false
	}
	b.lru.Remove(el)
	delete(b.frames, pg)
	return true
}

// DirtyPages returns the resident dirty pages in LRU order (oldest first).
func (b *BufferPool) DirtyPages() []PageID {
	var out []PageID
	for el := b.lru.Back(); el != nil; el = el.Prev() {
		if f := el.Value.(*frame); f.dirty {
			out = append(out, f.page)
		}
	}
	return out
}

// FrameState records one buffered page for checkpointing.
type FrameState struct {
	Page  PageID
	Dirty bool
}

// Snapshot captures the resident pages in LRU order (oldest first) with
// their dirty bits, for checkpointing. Reference counts are runtime state
// (they exist only within one operation) and are not captured.
func (b *BufferPool) Snapshot() []FrameState {
	out := make([]FrameState, 0, b.lru.Len())
	for el := b.lru.Back(); el != nil; el = el.Prev() {
		f := el.Value.(*frame)
		out = append(out, FrameState{Page: f.page, Dirty: f.dirty})
	}
	return out
}

// Restore replaces the pool contents with a snapshot taken by Snapshot.
// Frames are given oldest-first and must fit the capacity.
func (b *BufferPool) Restore(frames []FrameState) error {
	if len(frames) > b.capacity {
		return fmt.Errorf("storage: restoring %d frames into a %d-page pool", len(frames), b.capacity)
	}
	b.lru.Init()
	clear(b.frames)
	for _, fs := range frames {
		if _, dup := b.frames[fs.Page]; dup {
			return fmt.Errorf("storage: duplicate page %v in buffer snapshot", fs.Page)
		}
		b.frames[fs.Page] = b.lru.PushFront(&frame{page: fs.Page, dirty: fs.Dirty})
	}
	return nil
}

// Pages returns all resident pages in LRU order (oldest first).
func (b *BufferPool) Pages() []PageID {
	out := make([]PageID, 0, b.lru.Len())
	for el := b.lru.Back(); el != nil; el = el.Prev() {
		out = append(out, el.Value.(*frame).page)
	}
	return out
}
