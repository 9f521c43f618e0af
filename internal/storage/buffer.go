package storage

import (
	"fmt"
	"math/bits"
)

// BufferPool is a page-granular LRU cache. It tracks residency and dirty
// state; it holds no page contents (the Manager, its one owner, simulates
// them), so evicting a dirty page or cleaning one only drops the bit and
// the Manager charges the write. The pool is deliberately simple — the
// paper's buffer is a plain LRU sized to one partition (§3.1).
//
// Everything is allocated by NewBufferPool: a fixed array of frames linked
// by index into the LRU list, and an open-addressed page -> frame index. The
// index is keyed by the page itself rather than flattened through a
// partition geometry, so the pool knows no geometry.
type BufferPool struct {
	capacity int
	n        int // resident pages

	// frames[:capacity] hold pages; frames[capacity] is the root of the
	// circular LRU list (its next is the most recently used frame, its prev
	// the least). Frames holding nothing are chained through next from free.
	frames []frame
	free   int32 // first unused frame, -1 when every frame holds a page

	// index holds frame number + 1 at the page's hash or the first empty
	// entry after it (linear probing; 0 is empty). It is a power of two at
	// least twice the capacity, so it is never more than half full.
	index []int32
	shift uint // 64 - log2(len(index))
}

type frame struct {
	page       PageID
	prev, next int32
	dirty      bool
	// gc is set on a page dirtied under the IOGC class (see Manager.pin) and
	// cleared with the dirty bit, so it implies resident and dirty.
	gc bool
}

// PinResult reports what a Pin did, so the Manager can charge I/O.
type PinResult struct {
	Hit       bool
	ReadFault bool   // page was absent and had a disk image to read
	WroteBack bool   // a dirty victim was evicted and written
	Victim    PageID // valid when WroteBack
}

// maxBufferPages bounds a pool's capacity. The pool's frames and index are
// allocated whole, 40 MB at the bound, so a page count read from a damaged
// checkpoint image cannot size an allocation past it.
const maxBufferPages = 1 << 20

// NewBufferPool returns an LRU pool holding up to capacity pages.
func NewBufferPool(capacity int) (*BufferPool, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("storage: buffer capacity %d must be positive", capacity)
	}
	if capacity > maxBufferPages {
		return nil, fmt.Errorf("storage: buffer capacity %d exceeds %d pages", capacity, maxBufferPages)
	}
	log2 := bits.Len(uint(2*capacity - 1))
	b := &BufferPool{
		capacity: capacity,
		frames:   make([]frame, capacity+1),
		index:    make([]int32, 1<<log2),
		shift:    uint(64 - log2),
	}
	b.reset()
	return b, nil
}

// reset empties the pool: every frame goes on the free chain in order.
func (b *BufferPool) reset() {
	clear(b.index)
	root := int32(b.capacity)
	for i := range b.frames {
		b.frames[i] = frame{next: int32(i) + 1}
	}
	b.frames[root-1].next = -1
	b.frames[root] = frame{prev: root, next: root}
	b.free, b.n = 0, 0
}

// home returns the index entry a page hashes to.
func (b *BufferPool) home(pg PageID) int {
	return int((uint64(pg.Part)*31 + uint64(pg.Index)) * 0x9E3779B97F4A7C15 >> b.shift)
}

// lookup returns the number of the frame holding pg, or -1.
func (b *BufferPool) lookup(pg PageID) int32 {
	for i := b.home(pg); ; i = (i + 1) & (len(b.index) - 1) {
		e := b.index[i]
		if e == 0 || b.frames[e-1].page == pg {
			return e - 1
		}
	}
}

// enter records that frame fi holds page pg, which must not be indexed yet.
func (b *BufferPool) enter(pg PageID, fi int32) {
	i := b.home(pg)
	for b.index[i] != 0 {
		i = (i + 1) & (len(b.index) - 1)
	}
	b.index[i] = fi + 1
}

// remove deletes a resident page's index entry, moving later entries of its
// probe run back so that none is cut off from its home (no tombstones).
func (b *BufferPool) remove(pg PageID) {
	mask := len(b.index) - 1
	hole := b.home(pg)
	for b.frames[b.index[hole]-1].page != pg {
		hole = (hole + 1) & mask
	}
	for j := (hole + 1) & mask; b.index[j] != 0; j = (j + 1) & mask {
		// The entry at j may stay only if its home lies cyclically in
		// (hole, j]; otherwise a probe for it would stop at the hole.
		if h := b.home(b.frames[b.index[j]-1].page); (j-h)&mask >= (j-hole)&mask {
			b.index[hole], hole = b.index[j], j
		}
	}
	b.index[hole] = 0
}

// unlink takes frame fi out of the LRU list.
func (b *BufferPool) unlink(fi int32) {
	f := &b.frames[fi]
	b.frames[f.prev].next = f.next
	b.frames[f.next].prev = f.prev
}

// pushFront makes frame fi the most recently used.
func (b *BufferPool) pushFront(fi int32) {
	root := int32(b.capacity)
	f, r := &b.frames[fi], &b.frames[root]
	f.prev, f.next = root, r.next
	b.frames[r.next].prev = fi
	r.next = fi
}

// Capacity returns the pool capacity in pages.
func (b *BufferPool) Capacity() int { return b.capacity }

// Len returns the number of resident pages.
func (b *BufferPool) Len() int { return b.n }

// Pin makes the page resident and most-recently-used. dirty marks it dirty;
// fresh indicates the page has no disk image (a brand-new or fully
// rewritten page), so a miss does not cost a read.
//
// On a miss with a full pool, the least-recently-used page is evicted; the
// result says whether it was dirty, so the owner can charge the write.
func (b *BufferPool) Pin(pg PageID, dirty, fresh bool) PinResult {
	return b.pin(pg, dirty, fresh, false)
}

// pin is Pin for the Manager, which passes gc when the I/O class is IOGC: a
// page it pins dirty is then flagged collector-dirtied.
func (b *BufferPool) pin(pg PageID, dirty, fresh, gc bool) PinResult {
	var res PinResult
	root := int32(b.capacity)
	// Consecutive operations mostly land on the page just used: it is
	// already in front, and finding it there skips the index.
	fi := b.frames[root].next
	if fi == root || b.frames[fi].page != pg {
		if fi = b.lookup(pg); fi >= 0 {
			b.unlink(fi)
			b.pushFront(fi)
		}
	}
	if fi >= 0 {
		res.Hit = true
		if f := &b.frames[fi]; dirty {
			f.dirty = true
			f.gc = f.gc || gc
		}
		return res
	}
	res.ReadFault = !fresh
	if fi = b.free; fi >= 0 {
		b.free = b.frames[fi].next
		b.n++
	} else {
		fi = b.frames[root].prev
		if v := b.frames[fi]; v.dirty {
			res.WroteBack = true
			res.Victim = v.page
		}
		b.remove(b.frames[fi].page)
		b.unlink(fi)
	}
	b.frames[fi] = frame{page: pg, dirty: dirty, gc: dirty && gc}
	b.pushFront(fi)
	b.enter(pg, fi)
	return res
}

// Contains reports whether the page is resident.
func (b *BufferPool) Contains(pg PageID) bool { return b.lookup(pg) >= 0 }

// IsDirty reports whether the page is resident and dirty.
func (b *BufferPool) IsDirty(pg PageID) bool {
	fi := b.lookup(pg)
	return fi >= 0 && b.frames[fi].dirty
}

// cleanGC clears the dirty bit of every collector-dirtied page, a write-back
// the Manager charges, and returns how many there were.
func (b *BufferPool) cleanGC() int {
	n := 0
	for i := range b.frames[:b.capacity] {
		if f := &b.frames[i]; f.gc {
			f.dirty, f.gc = false, false
			n++
		}
	}
	return n
}

// Drop discards a resident page without write-back (its disk image is
// obsolete, e.g. freed space after compaction). Returns true if resident.
func (b *BufferPool) Drop(pg PageID) bool {
	fi := b.lookup(pg)
	if fi < 0 {
		return false
	}
	b.remove(pg)
	b.unlink(fi)
	b.frames[fi] = frame{next: b.free}
	b.free = fi
	b.n--
	return true
}

// oldestFirst calls fn for every resident frame in LRU order, oldest first.
func (b *BufferPool) oldestFirst(fn func(*frame)) {
	root := int32(b.capacity)
	for fi := b.frames[root].prev; fi != root; fi = b.frames[fi].prev {
		fn(&b.frames[fi])
	}
}

// FrameState records one buffered page for checkpointing: its dirty bit and,
// on a dirty page, its collector-dirty flag.
type FrameState struct {
	Page  PageID
	Dirty bool
	GC    bool
}

// Snapshot captures the resident pages in LRU order (oldest first) with
// their dirty bits and collector-dirty flags, for checkpointing.
func (b *BufferPool) Snapshot() []FrameState {
	out := make([]FrameState, 0, b.n)
	b.oldestFirst(func(f *frame) {
		out = append(out, FrameState{Page: f.page, Dirty: f.dirty, GC: f.gc})
	})
	return out
}

// Restore replaces the pool contents with a snapshot taken by Snapshot.
// Frames are given oldest-first and must fit the capacity; a page is listed
// once, and only a dirty one carries the collector-dirty flag. A snapshot that
// is refused leaves the pool empty.
func (b *BufferPool) Restore(frames []FrameState) error {
	if len(frames) > b.capacity {
		return fmt.Errorf("storage: restoring %d frames into a %d-page pool", len(frames), b.capacity)
	}
	b.reset()
	for _, fs := range frames {
		// The frames fit, so a pin takes a free frame, evicting nothing,
		// unless the page is there already.
		if b.pin(fs.Page, fs.Dirty, true, fs.GC).Hit {
			b.reset()
			return fmt.Errorf("storage: duplicate page %v in buffer snapshot", fs.Page)
		}
		if fs.GC && !fs.Dirty {
			b.reset()
			return fmt.Errorf("storage: collector-dirty page %v in buffer snapshot is clean", fs.Page)
		}
	}
	return nil
}

// Pages returns all resident pages in LRU order (oldest first).
func (b *BufferPool) Pages() []PageID {
	out := make([]PageID, 0, b.n)
	b.oldestFirst(func(f *frame) { out = append(out, f.page) })
	return out
}
