package storage

import (
	"container/list"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// modelPool is the buffer pool as it was before the array-backed one replaced
// it: container/list for the LRU order, a map for the index, frames allocated
// as the pool fills. It is kept, verbatim but for the type names and the one
// marked line in Restore, as the reference the differential tests drive the
// real pool against: same results, same errors, same page order. (Its
// write-back hook and reference pins left with the real pool's, which lost
// their last caller when the disk backend began writing its image in runs.)
type modelPool struct {
	capacity int
	lru      *list.List               // front = most recently used
	frames   map[PageID]*list.Element // page -> element whose Value is *modelFrame
}

type modelFrame struct {
	page  PageID
	dirty bool
}

// newModelPool returns an LRU pool holding up to capacity pages.
func newModelPool(capacity int) (*modelPool, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("storage: buffer capacity %d must be positive", capacity)
	}
	return &modelPool{
		capacity: capacity,
		lru:      list.New(),
		frames:   make(map[PageID]*list.Element, capacity),
	}, nil
}

// Capacity returns the pool capacity in pages.
func (b *modelPool) Capacity() int { return b.capacity }

// Len returns the number of resident pages.
func (b *modelPool) Len() int { return b.lru.Len() }

// Pin makes the page resident and most-recently-used. dirty marks it dirty;
// fresh indicates the page has no disk image (a brand-new or fully
// rewritten page), so a miss does not cost a read.
//
// On a miss with a full pool, the least-recently-used page is evicted.
func (b *modelPool) Pin(pg PageID, dirty, fresh bool) PinResult {
	var res PinResult
	// Consecutive operations mostly land on the page just used: it is
	// already in front, and finding it there skips the map lookup.
	if el := b.lru.Front(); el != nil {
		if f := el.Value.(*modelFrame); f.page == pg {
			res.Hit = true
			f.dirty = f.dirty || dirty
			return res
		}
	}
	if el, ok := b.frames[pg]; ok {
		res.Hit = true
		b.lru.MoveToFront(el)
		if dirty {
			el.Value.(*modelFrame).dirty = true
		}
		return res
	}
	if !fresh {
		res.ReadFault = true
	}
	if b.lru.Len() >= b.capacity {
		victim := b.lru.Back()
		vf := victim.Value.(*modelFrame)
		if vf.dirty {
			res.WroteBack = true
			res.Victim = vf.page
		}
		b.lru.Remove(victim)
		delete(b.frames, vf.page)
		// Recycle the evicted frame: once the pool is full, Pin allocates
		// nothing.
		vf.page, vf.dirty = pg, dirty
		b.frames[pg] = b.lru.PushFront(vf)
		return res
	}
	b.frames[pg] = b.lru.PushFront(&modelFrame{page: pg, dirty: dirty})
	return res
}

// Contains reports whether the page is resident.
func (b *modelPool) Contains(pg PageID) bool {
	_, ok := b.frames[pg]
	return ok
}

// IsDirty reports whether the page is resident and dirty.
func (b *modelPool) IsDirty(pg PageID) bool {
	el, ok := b.frames[pg]
	return ok && el.Value.(*modelFrame).dirty
}

// Clean clears the dirty bit of a resident page, returning true if the page
// was resident and dirty.
func (b *modelPool) Clean(pg PageID) bool {
	el, ok := b.frames[pg]
	if !ok {
		return false
	}
	f := el.Value.(*modelFrame)
	if !f.dirty {
		return false
	}
	f.dirty = false
	return true
}

// Drop discards a resident page without write-back (its disk image is
// obsolete, e.g. freed space after compaction). Returns true if resident.
func (b *modelPool) Drop(pg PageID) bool {
	el, ok := b.frames[pg]
	if !ok {
		return false
	}
	b.lru.Remove(el)
	delete(b.frames, pg)
	return true
}

// DirtyPages returns the resident dirty pages in LRU order (oldest first).
func (b *modelPool) DirtyPages() []PageID {
	var out []PageID
	for el := b.lru.Back(); el != nil; el = el.Prev() {
		if f := el.Value.(*modelFrame); f.dirty {
			out = append(out, f.page)
		}
	}
	return out
}

// Snapshot captures the resident pages in LRU order (oldest first) with
// their dirty bits, for checkpointing.
func (b *modelPool) Snapshot() []FrameState {
	out := make([]FrameState, 0, b.lru.Len())
	for el := b.lru.Back(); el != nil; el = el.Prev() {
		f := el.Value.(*modelFrame)
		out = append(out, FrameState{Page: f.page, Dirty: f.dirty})
	}
	return out
}

// Restore replaces the pool contents with a snapshot taken by Snapshot.
// Frames are given oldest-first and must fit the capacity.
func (b *modelPool) Restore(frames []FrameState) error {
	if len(frames) > b.capacity {
		return fmt.Errorf("storage: restoring %d frames into a %d-page pool", len(frames), b.capacity)
	}
	b.lru.Init()
	clear(b.frames)
	for _, fs := range frames {
		if _, dup := b.frames[fs.Page]; dup {
			// Not in the original, which returned half-filled: a refused
			// snapshot now leaves the pool empty.
			b.lru.Init()
			clear(b.frames)
			return fmt.Errorf("storage: duplicate page %v in buffer snapshot", fs.Page)
		}
		b.frames[fs.Page] = b.lru.PushFront(&modelFrame{page: fs.Page, dirty: fs.Dirty})
	}
	return nil
}

// Pages returns all resident pages in LRU order (oldest first).
func (b *modelPool) Pages() []PageID {
	out := make([]PageID, 0, b.lru.Len())
	for el := b.lru.Back(); el != nil; el = el.Prev() {
		out = append(out, el.Value.(*modelFrame).page)
	}
	return out
}

// poolCapacities are the sizes the differential tests run at: the two
// degenerate ones, the simulated manager's and the disk pager's.
var poolCapacities = [...]int{1, 2, 12, 64}

// poolPair is the pool and its model side by side.
type poolPair struct {
	t     testing.TB
	pool  *BufferPool
	model *modelPool
	pages []PageID // the stream's page universe
	snaps [][]FrameState
}

// collidingPages returns n pages that hash to one index entry of b, so a
// stream over them builds probe runs that deletion has to repair.
func collidingPages(b *BufferPool, n int) []PageID {
	var out []PageID
	want := b.home(PageID{Part: 0, Index: 0})
	for i := 0; len(out) < n; i++ {
		if p := (PageID{Part: PartitionID(i % 2), Index: i / 2}); b.home(p) == want {
			out = append(out, p)
		}
	}
	return out
}

func newPoolPair(t testing.TB, capacity int) *poolPair {
	t.Helper()
	pool, err := NewBufferPool(capacity)
	if err != nil {
		t.Fatal(err)
	}
	model, err := newModelPool(capacity)
	if err != nil {
		t.Fatal(err)
	}
	pp := &poolPair{t: t, pool: pool, model: model}
	// More pages than frames, half of them colliding in the index, half of
	// them spread over partitions as the manager's are.
	pp.pages = collidingPages(pool, capacity+2)
	for i := 0; i < capacity+2; i++ {
		pp.pages = append(pp.pages, PageID{Part: PartitionID(2 + i%3), Index: i})
	}
	return pp
}

func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// step applies one two-byte operation to both pools and compares everything
// that can be observed of them.
func (pp *poolPair) step(i int, op, arg byte) {
	t := pp.t
	t.Helper()
	pg := pp.pages[int(arg)%len(pp.pages)]
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d (op %d, %v): %s", i, op%16, pg, fmt.Sprintf(format, args...))
	}
	switch kind := op % 16; {
	case kind < 10:
		dirty, fresh := op&0x10 != 0, op&0x20 != 0
		if got, want := pp.pool.Pin(pg, dirty, fresh), pp.model.Pin(pg, dirty, fresh); got != want {
			fail("Pin = %+v, model %+v", got, want)
		}
	case kind == 10:
		if got, want := pp.pool.Clean(pg), pp.model.Clean(pg); got != want {
			fail("Clean = %v, model %v", got, want)
		}
	case kind == 11:
		if got, want := pp.pool.Drop(pg), pp.model.Drop(pg); got != want {
			fail("Drop = %v, model %v", got, want)
		}
	case kind == 12:
		got, want := pp.pool.Snapshot(), pp.model.Snapshot()
		if !reflect.DeepEqual(got, want) {
			fail("Snapshot = %v, model %v", got, want)
		}
		pp.snaps = append(pp.snaps, got)
	case kind == 13:
		if len(pp.snaps) == 0 {
			return
		}
		snap := pp.snaps[int(arg)%len(pp.snaps)]
		if got, want := pp.pool.Restore(snap), pp.model.Restore(snap); !sameError(got, want) {
			fail("Restore(saved) = %v, model %v", got, want)
		}
	default:
		// A made-up snapshot: op's high bits pick the stride through the
		// universe (zero repeats one page: a duplicate) and arg the length,
		// up to one more than fits.
		stride := int(op >> 6)
		var snap []FrameState
		for k := 0; k < int(arg)%(pp.pool.Capacity()+2); k++ {
			snap = append(snap, FrameState{Page: pp.pages[(int(arg)+k*stride)%len(pp.pages)], Dirty: (int(arg)+k)%3 == 0})
		}
		if got, want := pp.pool.Restore(snap), pp.model.Restore(snap); !sameError(got, want) {
			fail("Restore(%v) = %v, model %v", snap, got, want)
		}
	}
	if got, want := pp.pool.Pages(), pp.model.Pages(); !reflect.DeepEqual(got, want) {
		fail("Pages = %v, model %v", got, want)
	}
	if got, want := pp.pool.DirtyPages(), pp.model.DirtyPages(); !reflect.DeepEqual(got, want) {
		fail("DirtyPages = %v, model %v", got, want)
	}
	if pp.pool.Len() != pp.model.Len() || pp.pool.Contains(pg) != pp.model.Contains(pg) ||
		pp.pool.IsDirty(pg) != pp.model.IsDirty(pg) {
		fail("Len/Contains/IsDirty = %d %v %v, model %d %v %v",
			pp.pool.Len(), pp.pool.Contains(pg), pp.pool.IsDirty(pg),
			pp.model.Len(), pp.model.Contains(pg), pp.model.IsDirty(pg))
	}
	if err := checkPoolStructure(pp.pool); err != nil {
		fail("%v", err)
	}
}

// checkPoolStructure validates what the model cannot see: every frame is on
// exactly one of the two chains, and the index finds exactly the resident
// pages.
func checkPoolStructure(b *BufferPool) error {
	root := int32(b.capacity)
	seen := make([]bool, b.capacity)
	resident := 0
	for fi := b.frames[root].next; fi != root; fi = b.frames[fi].next {
		f := b.frames[fi]
		if seen[fi] || b.frames[f.next].prev != fi || b.frames[f.prev].next != fi {
			return fmt.Errorf("frame %d is linked wrongly into the LRU list", fi)
		}
		if b.lookup(f.page) != fi {
			return fmt.Errorf("index finds frame %d for %v, held by frame %d", b.lookup(f.page), f.page, fi)
		}
		if f.gc && !f.dirty {
			return fmt.Errorf("frame %d is collector-dirtied but clean", fi)
		}
		seen[fi] = true
		resident++
	}
	for fi := b.free; fi >= 0; fi = b.frames[fi].next {
		if seen[fi] || b.frames[fi].dirty || b.frames[fi].gc {
			return fmt.Errorf("free frame %d is resident, chained twice or carries state", fi)
		}
		seen[fi] = true
	}
	entries := 0
	for _, e := range b.index {
		if e != 0 {
			entries++
		}
	}
	if resident != b.n || entries != b.n || slices.Contains(seen, false) {
		return fmt.Errorf("%d resident frames, %d index entries, Len %d, a frame on no chain: %v",
			resident, entries, b.n, slices.Contains(seen, false))
	}
	return nil
}

// runPoolStream decodes a byte stream into pool operations: one header byte
// (the capacity), then two bytes per operation.
func runPoolStream(t testing.TB, data []byte) {
	t.Helper()
	if len(data) < 1 {
		return
	}
	pp := newPoolPair(t, poolCapacities[int(data[0])%len(poolCapacities)])
	for i := 1; i+1 < len(data); i += 2 {
		pp.step(i/2, data[i], data[i+1])
	}
}

// TestBufferPoolMatchesModel drives the pool and the container/list + map
// pool it replaced with the same seeded random streams at every capacity.
func TestBufferPoolMatchesModel(t *testing.T) {
	for ci := range poolCapacities {
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(ci)))
			data := make([]byte, 1+2*3000)
			rng.Read(data)
			data[0] = byte(ci)
			runPoolStream(t, data)
		}
	}
}

// FuzzBufferPool lets the fuzzer write the stream.
func FuzzBufferPool(f *testing.F) {
	for ci := range poolCapacities {
		rng := rand.New(rand.NewSource(int64(ci)))
		data := make([]byte, 1+2*200)
		rng.Read(data)
		data[0] = byte(ci)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { runPoolStream(t, data) })
}

// TestIndexDeletionRepairsProbeRuns fills a pool with pages that all hash to
// one index entry and removes them in every position of the run: each page
// still resident must stay findable, which a deletion that left a hole (or a
// tombstone scheme that filled up) would break.
func TestIndexDeletionRepairsProbeRuns(t *testing.T) {
	for _, capacity := range poolCapacities {
		b := newPool(t, capacity)
		pages := collidingPages(b, capacity)
		for victim := range pages {
			for round := 0; round < 3; round++ {
				for _, p := range pages {
					b.Pin(p, false, true)
				}
				if !b.Drop(pages[victim]) {
					t.Fatalf("capacity %d: Drop(%v) refused", capacity, pages[victim])
				}
				for i, p := range pages {
					if b.Contains(p) != (i != victim) {
						t.Fatalf("capacity %d: after dropping %v, Contains(%v) = %v", capacity, pages[victim], p, b.Contains(p))
					}
				}
				if err := checkPoolStructure(b); err != nil {
					t.Fatalf("capacity %d: %v", capacity, err)
				}
			}
		}
	}
}

// TestRestoreDuplicateLeavesPoolEmpty: a refused snapshot must not leave the
// frames before the duplicate behind.
func TestRestoreDuplicateLeavesPoolEmpty(t *testing.T) {
	b := newPool(t, 4)
	b.Pin(pg(9, 9), true, true)
	err := b.Restore([]FrameState{{Page: pg(0, 0)}, {Page: pg(0, 1), Dirty: true}, {Page: pg(0, 0)}})
	if err == nil {
		t.Fatal("duplicate page accepted")
	}
	if b.Len() != 0 || len(b.Pages()) != 0 || b.Contains(pg(0, 0)) || b.Contains(pg(9, 9)) {
		t.Errorf("refused Restore left %v resident", b.Pages())
	}
	if err := checkPoolStructure(b); err != nil {
		t.Error(err)
	}
}
