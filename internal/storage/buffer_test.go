package storage

import (
	"testing"
	"testing/quick"
)

func pg(part, idx int) PageID { return PageID{Part: PartitionID(part), Index: idx} }

func newPool(t *testing.T, capacity int) *BufferPool {
	t.Helper()
	b, err := NewBufferPool(capacity)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestPinMissAndHit(t *testing.T) {
	b := newPool(t, 2)
	res := b.Pin(pg(0, 0), false, false)
	if res.Hit || !res.ReadFault || res.WroteBack {
		t.Errorf("first pin = %+v, want miss+read", res)
	}
	res = b.Pin(pg(0, 0), false, false)
	if !res.Hit || res.ReadFault {
		t.Errorf("second pin = %+v, want hit", res)
	}
	if b.Len() != 1 {
		t.Errorf("Len = %d", b.Len())
	}
}

func TestFreshPageCostsNoRead(t *testing.T) {
	b := newPool(t, 2)
	res := b.Pin(pg(0, 0), true, true)
	if res.ReadFault {
		t.Error("fresh page charged a read")
	}
	if !b.IsDirty(pg(0, 0)) {
		t.Error("fresh dirty page not dirty")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	b := newPool(t, 2)
	b.Pin(pg(0, 0), false, false)
	b.Pin(pg(0, 1), false, false)
	b.Pin(pg(0, 0), false, false) // page 0 is now most recent
	b.Pin(pg(0, 2), false, false) // evicts page 1 (LRU)
	if b.Contains(pg(0, 1)) {
		t.Error("LRU page not evicted")
	}
	if !b.Contains(pg(0, 0)) || !b.Contains(pg(0, 2)) {
		t.Error("wrong pages resident")
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	b := newPool(t, 1)
	b.Pin(pg(0, 0), true, true)
	res := b.Pin(pg(0, 1), false, false)
	if !res.WroteBack || res.Victim != pg(0, 0) {
		t.Errorf("eviction = %+v, want writeback of p0/0", res)
	}
	// A clean victim costs nothing.
	res = b.Pin(pg(0, 2), false, false)
	if res.WroteBack {
		t.Errorf("clean eviction wrote back: %+v", res)
	}
}

func TestDirtyBitSticky(t *testing.T) {
	b := newPool(t, 2)
	b.Pin(pg(0, 0), true, true)
	b.Pin(pg(0, 0), false, false) // a clean pin must not clear the bit
	if !b.IsDirty(pg(0, 0)) {
		t.Error("dirty bit cleared by clean pin")
	}
}

func TestClean(t *testing.T) {
	b := newPool(t, 2)
	b.Pin(pg(0, 0), true, true)
	if !b.Clean(pg(0, 0)) {
		t.Error("Clean on dirty page returned false")
	}
	if b.Clean(pg(0, 0)) {
		t.Error("Clean on clean page returned true")
	}
	if b.Clean(pg(9, 9)) {
		t.Error("Clean on absent page returned true")
	}
	if b.IsDirty(pg(0, 0)) {
		t.Error("page still dirty after Clean")
	}
}

func TestDrop(t *testing.T) {
	b := newPool(t, 2)
	b.Pin(pg(0, 0), true, true)
	if !b.Drop(pg(0, 0)) {
		t.Error("Drop on resident page returned false")
	}
	if b.Drop(pg(0, 0)) {
		t.Error("Drop on absent page returned true")
	}
	if b.Contains(pg(0, 0)) || b.Len() != 0 {
		t.Error("dropped page still resident")
	}
}

func TestDirtyPagesOrder(t *testing.T) {
	b := newPool(t, 3)
	b.Pin(pg(0, 0), true, true)
	b.Pin(pg(0, 1), false, true)
	b.Pin(pg(0, 2), true, true)
	dirty := b.DirtyPages()
	if len(dirty) != 2 || dirty[0] != pg(0, 0) || dirty[1] != pg(0, 2) {
		t.Errorf("DirtyPages = %v", dirty)
	}
	pages := b.Pages()
	if len(pages) != 3 || pages[0] != pg(0, 0) || pages[2] != pg(0, 2) {
		t.Errorf("Pages = %v", pages)
	}
}

func TestZeroCapacityErrors(t *testing.T) {
	if _, err := NewBufferPool(0); err == nil {
		t.Error("NewBufferPool(0) did not error")
	}
	if _, err := NewBufferPool(-3); err == nil {
		t.Error("NewBufferPool(-3) did not error")
	}
}

// Property: residency never exceeds capacity, and a page pinned last is
// always resident.
func TestCapacityInvariantProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		b, err := NewBufferPool(4)
		if err != nil {
			return false
		}
		for _, op := range ops {
			p := pg(int(op%3), int(op/3)%7)
			b.Pin(p, op%5 == 0, op%7 == 0)
			if b.Len() > 4 {
				return false
			}
			if !b.Contains(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
