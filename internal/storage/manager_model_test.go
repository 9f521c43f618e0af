package storage

import (
	"math/rand"
	"slices"
	"testing"

	"odbgc/internal/objstore"
)

// referenceLayout is Compact's placement rule as it was written before the
// one-pass layout: pack the survivors in the given order, skipping to the
// next page whenever an object would span a boundary, with the remainder
// taken per object; if that overflows the partition, pack in old-offset
// order instead. It returns each survivor's new offset and the cursor.
func referenceLayout(cfg Config, old map[objstore.OID]Placement, live []objstore.OID) (map[objstore.OID]int, int, bool) {
	pack := func(order []objstore.OID) (map[objstore.OID]int, int) {
		offs := make(map[objstore.OID]int, len(order))
		cursor := 0
		for _, oid := range order {
			size := old[oid].Size
			if rem := cfg.PageSize - cursor%cfg.PageSize; size > rem {
				cursor += rem
			}
			offs[oid] = cursor
			cursor += size
		}
		return offs, cursor
	}
	offs, end := pack(live)
	if end <= cfg.PartitionBytes() {
		return offs, end, false
	}
	order := slices.Clone(live)
	slices.SortFunc(order, func(a, b objstore.OID) int { return old[a].Offset - old[b].Offset })
	offs, end = pack(order)
	return offs, end, true
}

// TestCompactMatchesReferenceLayout compacts random partitions — loose and
// packed to the last byte, few and all members surviving, in shuffled copy
// order — and compares every survivor's new offset with the reference,
// through the overflow fallback too.
func TestCompactMatchesReferenceLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	fallbacks := 0
	for iter := 0; iter < 600; iter++ {
		cfg := Config{PageSize: 100, PagesPerPartition: 2 + rng.Intn(6), BufferPages: 1 + rng.Intn(8)}
		m := newTestManager(t, cfg)
		// Fill partition 0 and spill into partition 1, so that foreign
		// objects exist. Tight fills alternate 60/40 (zero slack per page).
		tight := iter%3 == 0
		for oid := objstore.OID(1); m.NumPartitions() < 2; oid++ {
			size := 1 + rng.Intn(cfg.PageSize)
			if tight {
				size = 60 - 20*int(oid%2)
			}
			if _, err := m.Allocate(oid, size); err != nil {
				t.Fatal(err)
			}
		}
		members := memberOIDs(t, m, 0)
		old := make(map[objstore.OID]Placement, len(members))
		for _, oid := range members {
			old[oid], _ = m.PlacementOf(oid)
		}
		survive := []float64{0.1, 0.5, 0.9, 1}[rng.Intn(4)]
		var live []objstore.OID
		usedLive := 0
		for _, oid := range members {
			if rng.Float64() < survive {
				live = append(live, oid)
				usedLive += old[oid].Size
			}
		}
		rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })

		want, end, fellBack := referenceLayout(cfg, old, live)
		if fellBack {
			fallbacks++
		}
		usedBefore := m.parts[0].used
		res, err := compact(t, m, 0, live)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for _, oid := range members {
			pl, placed := m.PlacementOf(oid)
			off, survivor := want[oid]
			switch {
			case placed != survivor:
				t.Fatalf("iter %d: %v placed=%v, survivor=%v", iter, oid, placed, survivor)
			case survivor && (pl.Offset != off || pl.Size != old[oid].Size || pl.Part != 0):
				t.Fatalf("iter %d (fallback %v): %v at %+v, reference offset %d", iter, fellBack, oid, pl, off)
			}
		}
		if cursor := m.parts[0].cursor; cursor != end {
			t.Fatalf("iter %d: cursor at %d, reference %d", iter, cursor, end)
		}
		wantRes := CompactResult{
			ReclaimedBytes:   usedBefore - usedLive,
			ReclaimedObjects: len(members) - len(live),
			LivePages:        (end + cfg.PageSize - 1) / cfg.PageSize,
		}
		if res != wantRes {
			t.Fatalf("iter %d: result %+v, want %+v", iter, res, wantRes)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
	if fallbacks < 20 {
		t.Errorf("only %d of 600 partitions forced the overflow fallback; the fills no longer exercise it", fallbacks)
	}
}

// TestGCDirtyFollowsTheFrame drives a manager through random operations
// under both I/O classes and keeps, beside it, the set the gcDirty map used
// to hold: a page enters when the collector dirties it and leaves when it is
// no longer buffered and dirty (cleaned, dropped, or evicted with
// write-back). The frame flags must list the same pages, sorted, and a
// collector flush must write exactly those, charged to the collector.
func TestGCDirtyFollowsTheFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := Config{PageSize: 100, PagesPerPartition: 4, BufferPages: 3}
	m := newTestManager(t, cfg)
	shadow := map[PageID]bool{}
	next := objstore.OID(1)
	var placed []objstore.OID
	for step := 0; step < 5000; step++ {
		// Compaction runs under the collector's class, as in Heap.Collect:
		// under the application's, a page could be evicted and dirtied again
		// inside the one call, which cannot be told apart from outside.
		op := rng.Intn(10)
		gc := op == 8 || rng.Intn(2) == 0
		m.SetIOClass(IOApp)
		if gc {
			m.SetIOClass(IOGC)
		}
		var dirtied []PageID
		switch {
		case op < 3:
			pl, err := m.Allocate(next, 10+rng.Intn(60))
			if err != nil {
				t.Fatal(err)
			}
			placed = append(placed, next)
			next++
			dirtied = []PageID{{pl.Part, pl.Page}}
		case op < 7 && len(placed) > 0:
			oid := placed[rng.Intn(len(placed))]
			write := rng.Intn(2) == 0
			if err := m.Touch(oid, write); err != nil {
				t.Fatal(err)
			}
			if pl, _ := m.PlacementOf(oid); write {
				dirtied = []PageID{{pl.Part, pl.Page}}
			}
		case op == 7 && m.NumPartitions() > 0:
			if err := m.ReadPartition(PartitionID(rng.Intn(m.NumPartitions()))); err != nil {
				t.Fatal(err)
			}
		case op == 8 && m.NumPartitions() > 0:
			id := PartitionID(rng.Intn(m.NumPartitions()))
			var live []objstore.OID
			for _, oid := range memberOIDs(t, m, id) {
				if rng.Intn(4) > 0 {
					live = append(live, oid)
				}
			}
			res, err := compact(t, m, id, live)
			if err != nil {
				t.Fatal(err)
			}
			placed = slices.DeleteFunc(placed, func(oid objstore.OID) bool { _, ok := m.PartitionOf(oid); return !ok })
			for i := 0; i < res.LivePages; i++ {
				dirtied = append(dirtied, PageID{id, i})
			}
		case op == 9:
			before, want := m.Stats(), len(shadow)
			if n := m.FlushGCDirty(); n != want {
				t.Fatalf("step %d: collector flush wrote %d pages, %d were pending", step, n, want)
			} else if d := m.Stats().Sub(before); d != (IOStats{GCWrites: uint64(n)}) {
				t.Fatalf("step %d: collector flush charged %+v for %d pages", step, d, n)
			}
		}
		if gc {
			for _, pg := range dirtied {
				shadow[pg] = true
			}
		}
		for pg := range shadow {
			if !m.buf.IsDirty(pg) {
				delete(shadow, pg)
			}
		}
		var got []PageID
		for _, f := range m.buf.Snapshot() {
			if f.GC {
				got = append(got, f.Page)
			}
		}
		if len(got) != len(shadow) {
			t.Fatalf("step %d: GCDirty %v, want the %d pages of %v", step, got, len(shadow), shadow)
		}
		for _, pg := range got {
			if !shadow[pg] {
				t.Fatalf("step %d: GCDirty %v lists %v, want %v", step, got, pg, shadow)
			}
		}
	}
}
