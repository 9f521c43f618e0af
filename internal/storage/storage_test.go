package storage

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"odbgc/internal/objstore"
)

// tinyConfig keeps geometry small so tests exercise boundaries quickly:
// 100-byte pages, 4 pages per partition, 4-page buffer.
func tinyConfig() Config {
	return Config{PageSize: 100, PagesPerPartition: 4, BufferPages: 4}
}

func newTestManager(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// headers returns the headers Compact takes for oids: the manager's own, and
// for an OID its store does not hold, an unplaced header of that OID.
func headers(m *Manager, oids []objstore.OID) []*objstore.Object {
	out := make([]*objstore.Object, 0, len(oids))
	for _, oid := range oids {
		o := m.store.Get(oid)
		if o == nil {
			o = &objstore.Object{OID: oid}
		}
		out = append(out, o)
	}
	return out
}

// memberOIDs returns the OIDs of the objects placed in a partition, read from
// the header form.
func memberOIDs(t testing.TB, m *Manager, id PartitionID) []objstore.OID {
	t.Helper()
	members, err := m.AppendMembers(nil, id)
	if err != nil {
		t.Fatal(err)
	}
	var out []objstore.OID
	for _, o := range members {
		out = append(out, o.OID)
	}
	return out
}

// compact hands Compact the partition's member headers, as AppendMembers
// lists them, and the headers of live.
func compact(t testing.TB, m *Manager, id PartitionID, live []objstore.OID) (CompactResult, error) {
	t.Helper()
	members, err := m.AppendMembers(nil, id)
	if err != nil {
		t.Fatal(err)
	}
	return m.Compact(id, members, headers(m, live))
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{PageSize: 0, PagesPerPartition: 1, BufferPages: 1},
		{PageSize: 1, PagesPerPartition: 0, BufferPages: 1},
		{PageSize: 1, PagesPerPartition: 1, BufferPages: 0},
		{PageSize: 1 << 20, PagesPerPartition: 1 << 11, BufferPages: 1}, // 2 GiB partition: offsets are 32-bit
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v accepted", c)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
	if got := DefaultConfig().PartitionBytes(); got != 12*8192 {
		t.Errorf("PartitionBytes = %d, want 98304 (paper geometry)", got)
	}
}

func TestAllocateBumpsWithinPage(t *testing.T) {
	m := newTestManager(t, tinyConfig())
	p1, err := m.Allocate(1, 40)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m.Allocate(2, 40)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Part != 0 || p1.Page != 0 || p1.Offset != 0 {
		t.Errorf("first placement = %+v", p1)
	}
	if p2.Page != 0 || p2.Offset != 40 {
		t.Errorf("second placement = %+v", p2)
	}
}

func TestAllocateSkipsPageBoundary(t *testing.T) {
	m := newTestManager(t, tinyConfig())
	if _, err := m.Allocate(1, 70); err != nil {
		t.Fatal(err)
	}
	p, err := m.Allocate(2, 50) // 50 > 30 remaining: next page
	if err != nil {
		t.Fatal(err)
	}
	if p.Page != 1 || p.Offset != 100 {
		t.Errorf("placement = %+v, want page 1 offset 100", p)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAllocateGrowsPartition(t *testing.T) {
	m := newTestManager(t, tinyConfig())
	// Fill partition 0 exactly: 4 pages of 100.
	for i := 1; i <= 4; i++ {
		if _, err := m.Allocate(objstore.OID(i), 100); err != nil {
			t.Fatal(err)
		}
	}
	if m.NumPartitions() != 1 {
		t.Fatalf("partitions = %d", m.NumPartitions())
	}
	p, err := m.Allocate(5, 10)
	if err != nil {
		t.Fatal(err)
	}
	if p.Part != 1 {
		t.Errorf("overflow allocation went to partition %d, want 1", p.Part)
	}
	if m.NumPartitions() != 2 {
		t.Errorf("partitions = %d, want 2", m.NumPartitions())
	}
}

func TestAllocateRejects(t *testing.T) {
	m := newTestManager(t, tinyConfig())
	if _, err := m.Allocate(1, 0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := m.Allocate(1, 101); err == nil {
		t.Error("page-exceeding size accepted")
	}
	if _, err := m.Allocate(1, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Allocate(1, 10); err == nil {
		t.Error("duplicate OID accepted")
	}
}

func TestTouchAccounting(t *testing.T) {
	m := newTestManager(t, tinyConfig())
	if _, err := m.Allocate(1, 10); err != nil {
		t.Fatal(err)
	}
	base := m.Stats()
	if err := m.Touch(1, false); err != nil { // page resident: no I/O
		t.Fatal(err)
	}
	if d := m.Stats().Sub(base); d.TotalIO() != 0 {
		t.Errorf("resident touch cost %+v", d)
	}
	// Evict by filling the buffer with 4 other pages.
	for i := 2; i <= 5; i++ {
		if _, err := m.Allocate(objstore.OID(i), 100); err != nil {
			t.Fatal(err)
		}
	}
	base = m.Stats()
	if err := m.Touch(1, true); err != nil {
		t.Fatal(err)
	}
	d := m.Stats().Sub(base)
	if d.AppReads != 1 {
		t.Errorf("fault read not charged: %+v", d)
	}
	if err := m.Touch(99, false); err == nil {
		t.Error("touch of unplaced object accepted")
	}
}

func TestIOClassAttribution(t *testing.T) {
	m := newTestManager(t, tinyConfig())
	if _, err := m.Allocate(1, 100); err != nil {
		t.Fatal(err)
	}
	// Push page out with app I/O, then fault it back under the GC class.
	for i := 2; i <= 5; i++ {
		if _, err := m.Allocate(objstore.OID(i), 100); err != nil {
			t.Fatal(err)
		}
	}
	prev := m.SetIOClass(IOGC)
	if prev != IOApp {
		t.Errorf("previous class = %v, want IOApp", prev)
	}
	base := m.Stats()
	if err := m.Touch(1, false); err != nil {
		t.Fatal(err)
	}
	d := m.Stats().Sub(base)
	if d.GCReads != 1 || d.AppReads != 0 {
		t.Errorf("GC touch charged %+v", d)
	}
	m.SetIOClass(IOApp)
	if m.class != IOApp {
		t.Error("class not restored")
	}
}

func TestIOStatsHelpers(t *testing.T) {
	s := IOStats{AppReads: 1, AppWrites: 2, GCReads: 3, GCWrites: 4}
	if s.AppIO() != 3 || s.GCIO() != 7 || s.TotalIO() != 10 {
		t.Errorf("helpers wrong: %+v", s)
	}
	d := s.Sub(IOStats{AppReads: 1, GCWrites: 1})
	if d.AppReads != 0 || d.GCWrites != 3 {
		t.Errorf("Sub = %+v", d)
	}
}

func TestCompactReclaims(t *testing.T) {
	m := newTestManager(t, tinyConfig())
	for oid, sz := range map[objstore.OID]int{1: 60, 2: 60} {
		if _, err := m.Allocate(oid, sz); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Allocate(3, 60); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Allocate(4, 60); err != nil {
		t.Fatal(err)
	}
	res, err := compact(t, m, 0, []objstore.OID{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReclaimedObjects != 2 || res.ReclaimedBytes != 120 {
		t.Errorf("reclaim = %+v", res)
	}
	// Survivors are packed in copy order from offset 0: object 3 at 0, and
	// object 1 skips to page 1 (60 bytes do not fit the 40 remaining).
	p3, _ := m.PlacementOf(3)
	p1, _ := m.PlacementOf(1)
	if p3.Offset != 0 || p1.Offset != 100 {
		t.Errorf("packed placements: 3=%+v 1=%+v", p3, p1)
	}
	if _, ok := m.PlacementOf(2); ok {
		t.Error("reclaimed object still placed")
	}
	if m.parts[0].used != 120 {
		t.Errorf("used = %d", m.parts[0].used)
	}
	// Freed space is allocatable again: cursor 160, capacity 400.
	if m.parts[0].cursor != 160 {
		t.Errorf("cursor = %d, want 160", m.parts[0].cursor)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestCompactErrors(t *testing.T) {
	m := newTestManager(t, tinyConfig())
	if _, err := m.Allocate(1, 10); err != nil {
		t.Fatal(err)
	}
	// A rejected compaction changes nothing, its own survivor flags included.
	rejected := func(what string, id PartitionID, live ...objstore.OID) {
		t.Helper()
		before := m.AppendState(nil)
		if _, err := compact(t, m, id, live); err == nil {
			t.Errorf("%s accepted", what)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Errorf("%s: rejected compaction left the manager inconsistent: %v", what, err)
		}
		if after := m.AppendState(nil); !bytes.Equal(before, after) {
			t.Errorf("%s: rejected compaction mutated state:\nbefore %+v\nafter  %+v", what, before, after)
		}
	}
	rejected("unknown partition", 5)
	rejected("foreign live object", 0, 42)
	if _, err := m.Allocate(2, 10); err != nil {
		t.Fatal(err)
	}
	rejected("duplicate live object", 0, 2, 1, 2)
	rejected("foreign live object after valid ones", 0, 1, 2, 42)
	// One placed, but in another partition.
	for oid := objstore.OID(3); m.NumPartitions() < 2; oid++ {
		if _, err := m.Allocate(oid, 90); err != nil {
			t.Fatal(err)
		}
	}
	if other := memberOIDs(t, m, 1); len(other) == 0 {
		t.Fatal("fixture: partition 1 is empty")
	} else {
		rejected("live object of another partition", 0, 1, other[0], 2)
	}

	// Eight 50-byte objects fill the four pages. One header grown by a byte
	// pads every page after it, so neither order fits: the overflow refusal.
	m = newTestManager(t, tinyConfig())
	for oid := objstore.OID(1); oid <= 8; oid++ {
		if _, err := m.Allocate(oid, 50); err != nil {
			t.Fatal(err)
		}
	}
	m.store.Get(1).Size++
	before := m.AppendState(nil)
	if _, err := compact(t, m, 0, memberOIDs(t, m, 0)); err == nil || !strings.Contains(err.Error(), "overflowed") {
		t.Errorf("overflowing compaction: %v", err)
	}
	if after := m.AppendState(nil); !bytes.Equal(before, after) {
		t.Errorf("overflowing compaction mutated state:\nbefore %+v\nafter  %+v", before, after)
	}
	m.store.Get(1).Size--
	if err := m.CheckInvariants(); err != nil {
		t.Errorf("overflowing compaction left the manager inconsistent: %v", err)
	}
}

// TestCompactRefusesForeignMembers: Compact reads what became of each member
// from the header it is handed, so it refuses a members slice that is not the
// partition's list — one too short or too long, or one holding a header
// recycled for another object since it was listed — and leaves everything as
// it was, every survivor's claim released.
func TestCompactRefusesForeignMembers(t *testing.T) {
	m := newTestManager(t, tinyConfig())
	for oid := objstore.OID(1); oid <= 4; oid++ {
		if _, err := m.Allocate(oid, 60); err != nil {
			t.Fatal(err)
		}
	}
	members, err := m.AppendMembers(nil, 0)
	if err != nil || len(members) != 4 {
		t.Fatalf("fixture: partition 0 holds %d members (%v)", len(members), err)
	}
	refused := func(what string, members []*objstore.Object, live ...objstore.OID) {
		t.Helper()
		before := m.AppendState(nil)
		if _, err := m.Compact(0, members, headers(m, live)); err == nil || !strings.Contains(err.Error(), "member") {
			t.Errorf("%s: Compact said %v, want a refusal naming the members", what, err)
		}
		if after := m.AppendState(nil); !bytes.Equal(before, after) {
			t.Errorf("%s: refused compaction mutated state:\nbefore %+v\nafter  %+v", what, before, after)
		}
		m.store.ForEach(func(o *objstore.Object) {
			if o.PartPlus1 < 0 {
				t.Errorf("%s: refused compaction left %v claimed (PartPlus1 %d)", what, o.OID, o.PartPlus1)
			}
		})
	}
	refused("members short by one", members[:3], 1, 3)
	refused("members with one extra", append(slices.Clone(members), members[0]), 1, 3)

	// Object 2 leaves the store, as the collector's dead do before they are
	// compacted away, and its header is recycled for object 5.
	if err := m.store.Remove(2); err != nil {
		t.Fatal(err)
	}
	if o, err := m.store.CreateWithOID(5, objstore.ClassUnknown, 60, 0); err != nil || o != members[1] {
		t.Fatalf("fixture: object 5 did not recycle object 2's header (%v)", err)
	}
	refused("a recycled header", members, 1, 3)
}

// TestCompactOverflowFallback reproduces the copy-order padding overflow: a
// partition packed tight in one order can exceed capacity if repacked in a
// different order, and Compact must fall back to original-offset order.
func TestCompactOverflowFallback(t *testing.T) {
	m := newTestManager(t, tinyConfig())
	// Page layout (page 100): [60 40] [60 40] [60 40] [60 40] = 8 objects,
	// zero slack at page level. Reversed copy order would pair 40s first
	// and overflow.
	sizes := map[objstore.OID]int{}
	var order []objstore.OID
	oid := objstore.OID(1)
	for p := 0; p < 4; p++ {
		for _, sz := range []int{60, 40} {
			sizes[oid] = sz
			if _, err := m.Allocate(oid, sz); err != nil {
				t.Fatal(err)
			}
			order = append(order, oid)
			oid++
		}
	}
	// Worst-case copy order: all 60s then all 40s = 60*4 = pages 0..2 hold
	// 60+[pad] each... try it and require success regardless.
	var worst []objstore.OID
	for i := 0; i < len(order); i += 2 {
		worst = append(worst, order[i])
	}
	for i := 1; i < len(order); i += 2 {
		worst = append(worst, order[i])
	}
	res, err := compact(t, m, 0, worst)
	if err != nil {
		t.Fatalf("compact failed: %v", err)
	}
	if res.ReclaimedObjects != 0 {
		t.Errorf("reclaimed %d objects from all-live compaction", res.ReclaimedObjects)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
	// All objects must still fit in the partition.
	for o := range sizes {
		pl, ok := m.PlacementOf(o)
		if !ok || pl.Offset+pl.Size > m.Config().PartitionBytes() {
			t.Errorf("object %v out of bounds: %+v", o, pl)
		}
	}
}

func TestReadPartitionFaultsUsedPages(t *testing.T) {
	cfg := tinyConfig()
	cfg.BufferPages = 2
	m := newTestManager(t, cfg)
	for i := 1; i <= 4; i++ {
		if _, err := m.Allocate(objstore.OID(i), 100); err != nil {
			t.Fatal(err)
		}
	}
	base := m.Stats()
	m.SetIOClass(IOGC)
	if err := m.ReadPartition(0); err != nil {
		t.Fatal(err)
	}
	d := m.Stats().Sub(base)
	// 4 used pages, at most 2 resident before: at least 2 reads, and the
	// evictions of dirty pages charge writes.
	if d.GCReads < 2 {
		t.Errorf("ReadPartition reads = %d, want >= 2", d.GCReads)
	}
	if d.AppReads != 0 {
		t.Errorf("app charged for GC scan: %+v", d)
	}
}

func TestFlushGCDirty(t *testing.T) {
	m := newTestManager(t, tinyConfig())
	m.SetIOClass(IOGC)
	if _, err := m.Allocate(1, 10); err != nil {
		t.Fatal(err)
	}
	base := m.Stats()
	if n := m.FlushGCDirty(); n != 1 {
		t.Errorf("flushed %d pages, want 1", n)
	}
	if d := m.Stats().Sub(base); d.GCWrites != 1 {
		t.Errorf("flush charged %+v", d)
	}
	// Second flush is a no-op.
	if n := m.FlushGCDirty(); n != 0 {
		t.Errorf("second flush wrote %d pages", n)
	}
}

func TestObjectsInSorted(t *testing.T) {
	m := newTestManager(t, tinyConfig())
	for _, oid := range []objstore.OID{5, 3, 9} {
		if _, err := m.Allocate(oid, 10); err != nil {
			t.Fatal(err)
		}
	}
	got := memberOIDs(t, m, 0)
	if len(got) != 3 || got[0] != 3 || got[1] != 5 || got[2] != 9 {
		t.Errorf("members = %v", got)
	}
	if got := memberOIDs(t, m, 7); got != nil {
		t.Errorf("unknown partition returned %v", got)
	}
	// A member its owner removed without compacting is reported, not skipped.
	if err := m.store.Remove(5); err != nil {
		t.Fatal(err)
	}
	if _, err := m.AppendMembers(nil, 0); err == nil || !strings.Contains(err.Error(), "not in the store") {
		t.Errorf("member missing from the store: %v", err)
	}
}

// Property: after any sequence of allocations and compactions, invariants
// hold and no placement overlaps another.
func TestStorageInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, err := NewManager(tinyConfig())
		if err != nil {
			return false
		}
		sizes := map[objstore.OID]int{}
		next := objstore.OID(1)
		for step := 0; step < 200; step++ {
			if rng.Intn(10) < 7 || m.NumPartitions() == 0 {
				sz := 1 + rng.Intn(100)
				if _, err := m.Allocate(next, sz); err != nil {
					return false
				}
				sizes[next] = sz
				next++
			} else {
				part := PartitionID(rng.Intn(m.NumPartitions()))
				members := memberOIDs(t, m, part)
				var live []objstore.OID
				for _, o := range members {
					if rng.Intn(2) == 0 {
						live = append(live, o)
					} else {
						delete(sizes, o)
					}
				}
				rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
				if _, err := compact(t, m, part, live); err != nil {
					return false
				}
			}
		}
		if err := m.CheckInvariants(); err != nil {
			return false
		}
		// No overlapping placements within a partition.
		type span struct{ lo, hi int }
		perPart := map[PartitionID][]span{}
		for oid := range sizes {
			pl, ok := m.PlacementOf(oid)
			if !ok {
				return false
			}
			for _, s := range perPart[pl.Part] {
				if pl.Offset < s.hi && s.lo < pl.Offset+pl.Size {
					return false
				}
			}
			perPart[pl.Part] = append(perPart[pl.Part], span{pl.Offset, pl.Offset + pl.Size})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	m := newTestManager(t, tinyConfig())
	if _, err := m.Allocate(1, 10); err != nil {
		t.Fatal(err)
	}
	m.store.Get(1).Offset = 95 // spans boundary
	err := m.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "spans") {
		t.Errorf("corruption not detected: %v", err)
	}
}

// TestCheckInvariantsCrossChecksTotals: the stored database size and the
// member lists are redundant with the placements, and the sweep says so when
// they drift.
func TestCheckInvariantsCrossChecksTotals(t *testing.T) {
	build := func() *Manager {
		m := newTestManager(t, tinyConfig())
		for oid := objstore.OID(1); oid <= 9; oid++ {
			if _, err := m.Allocate(oid, 60); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := compact(t, m, 0, []objstore.OID{3, 1}); err != nil {
			t.Fatal(err)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if m.OccupiedBytes() != 7*60 {
			t.Fatalf("occupied = %d after reclaiming 2 of 9 objects", m.OccupiedBytes())
		}
		return m
	}
	m := build()
	m.occupied++
	if err := m.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "occupied total") {
		t.Errorf("drifted occupied total not detected: %v", err)
	}
	m = build()
	m.parts[1].objects = m.parts[1].objects[1:]
	if err := m.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "placements but") {
		t.Errorf("object missing from its member list not detected: %v", err)
	}
	m = build()
	objs := m.parts[1].objects
	objs[0], objs[1] = objs[1], objs[0]
	if err := m.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "out of order") {
		t.Errorf("unsorted member list not detected: %v", err)
	}
}

// TestPlaceAfterCompactionDropsItsPage: Place skips the pool when the object
// lands on the page it pinned last, which is exact only while that page is
// still the pool's dirty front frame. A compaction that keeps nothing drops
// the partition's pages without pinning any; the next placement on page 0
// must bring it back, dirty.
func TestPlaceAfterCompactionDropsItsPage(t *testing.T) {
	m := newTestManager(t, tinyConfig())
	if _, err := m.Allocate(1, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := compact(t, m, 0, nil); err != nil {
		t.Fatal(err)
	}
	if got := m.buf.Pages(); len(got) != 0 {
		t.Fatalf("fixture: buffer holds %v after the compaction", got)
	}
	if _, err := m.Allocate(2, 10); err != nil {
		t.Fatal(err)
	}
	if got := m.buf.Pages(); !reflect.DeepEqual(got, []PageID{{0, 0}}) || !m.buf.IsDirty(PageID{0, 0}) {
		t.Errorf("after placing on the dropped page the buffer holds %v (dirty %v), want p0/0 dirty", got, m.buf.IsDirty(PageID{0, 0}))
	}
	if err := m.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// TestPlaceRepinsWhatChanged: Place skips pinning the page it pinned last,
// which is exact only until something else happens to the pool. After a pin
// of another page, a flush that cleans the page, or a switch of I/O class, the
// next placement on that page must pin it as Allocate always did: back in
// front, dirty, and collector-dirty when placed under IOGC.
func TestPlaceRepinsWhatChanged(t *testing.T) {
	for _, tc := range []struct {
		name    string
		class   IOClass
		between func(m *Manager)
	}{
		{"another page pinned", IOApp, func(m *Manager) { _ = m.Touch(1, false) }},
		{"collector pages flushed", IOGC, func(m *Manager) { m.FlushGCDirty() }},
		{"class switched", IOApp, func(m *Manager) { m.SetIOClass(IOGC) }},
	} {
		m := newTestManager(t, Config{PageSize: 100, PagesPerPartition: 4, BufferPages: 1})
		m.SetIOClass(tc.class)
		if _, err := m.Allocate(1, 10); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Allocate(2, 95); err != nil { // past p0/0's 90 free bytes
			t.Fatal(err)
		}
		tc.between(m) // p0/1, where object 2 went, is the page placed last
		if _, err := m.Allocate(3, 5); err != nil {
			t.Fatal(err)
		}
		frames, wantGC := m.buf.Snapshot(), m.class == IOGC
		if len(frames) != 1 || frames[0] != (FrameState{Page: PageID{0, 1}, Dirty: true, GC: wantGC}) {
			t.Errorf("%s: buffer %+v; want p0/1 dirty (collector-dirty %v)", tc.name, frames, wantGC)
		}
	}
}
