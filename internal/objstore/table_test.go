package objstore

import (
	"errors"
	"math/rand"
	"testing"
)

// residentChunks counts the chunks a table currently holds.
func residentChunks[T comparable](t *Table[T]) int {
	n := 0
	for _, c := range t.dir {
		if c != nil {
			n++
		}
	}
	return n
}

func TestTableGetSetDelete(t *testing.T) {
	var tab Table[int32]
	if tab.Len() != 0 || tab.Get(7) != 0 {
		t.Fatal("zero table is not empty")
	}
	tab.Set(7, 3)
	tab.Set(7, 4) // overwrite: one entry, not two
	tab.Set(300, 1)
	if tab.Len() != 2 || tab.Get(7) != 4 || tab.Get(300) != 1 {
		t.Fatalf("len=%d get(7)=%d get(300)=%d", tab.Len(), tab.Get(7), tab.Get(300))
	}
	// Absent, deleted and never-reached OIDs all read as zero.
	for _, oid := range []OID{0, 8, 299, 1 << 20, 1 << 62, ^OID(0)} {
		if got := tab.Get(oid); got != 0 {
			t.Errorf("Get(%d) = %d, want 0", uint64(oid), got)
		}
	}
	tab.Set(7, 0)
	tab.Set(7, 0) // deleting twice is a no-op
	if tab.Len() != 1 || tab.Get(7) != 0 {
		t.Fatalf("after delete: len=%d get(7)=%d", tab.Len(), tab.Get(7))
	}
	// Deleting what was never there must not grow anything.
	dir := len(tab.dir)
	tab.Set(1<<40, 0)
	if len(tab.dir) != dir {
		t.Errorf("deleting an unreached OID grew the directory from %d to %d chunks", dir, len(tab.dir))
	}
}

func TestTableReleasesEmptyChunks(t *testing.T) {
	var tab Table[*Object]
	o := &Object{}
	for oid := OID(0); oid < 4*chunkSize; oid++ {
		tab.Set(oid, o)
	}
	if got := residentChunks(&tab); got != 4 {
		t.Fatalf("resident chunks = %d, want 4", got)
	}
	// Empty the second chunk except one slot: it stays.
	for oid := OID(chunkSize); oid < 2*chunkSize-1; oid++ {
		tab.Set(oid, nil)
	}
	if got := residentChunks(&tab); got != 4 {
		t.Fatalf("chunk released with one slot still occupied (resident %d)", got)
	}
	released := tab.dir[1]
	tab.Set(2*chunkSize-1, nil)
	if got := residentChunks(&tab); got != 3 || tab.dir[1] != nil {
		t.Fatalf("empty chunk not released (resident %d)", got)
	}
	if tab.Len() != 3*chunkSize {
		t.Fatalf("len = %d, want %d", tab.Len(), 3*chunkSize)
	}
	// Lookups into the released range read absent, and the next chunk that
	// is needed takes the released one instead of allocating.
	if tab.Get(chunkSize+5) != nil {
		t.Error("released chunk still answers lookups")
	}
	tab.Set(9*chunkSize, o)
	if tab.dir[9] != released {
		t.Error("released chunk was not reused")
	}
	for i, v := range tab.dir[9] {
		if (v != nil) != (i == 0) {
			t.Fatalf("reused chunk slot %d = %v", i, v)
		}
	}
}

// TestTableMemoryFollowsPopulation thins a long run of OIDs down to a sparse
// survivor set, the shape a serving database's object table takes, and
// requires the resident chunks to follow the survivors, not the horizon.
func TestTableMemoryFollowsPopulation(t *testing.T) {
	var tab Table[bool]
	const horizon = 200_000
	for oid := OID(1); oid <= horizon; oid++ {
		tab.Set(oid, true)
	}
	survivors := 0
	for oid := OID(1); oid <= horizon; oid++ {
		if oid%5000 == 0 {
			survivors++
			continue
		}
		tab.Set(oid, false)
	}
	if tab.Len() != survivors {
		t.Fatalf("len = %d, want %d", tab.Len(), survivors)
	}
	if got := residentChunks(&tab); got != survivors {
		t.Errorf("%d chunks resident for %d survivors spread over %d OIDs", got, survivors, horizon)
	}
}

func TestTableForEachAscending(t *testing.T) {
	var tab Table[int32]
	rng := rand.New(rand.NewSource(1))
	want := map[OID]int32{}
	for i := 0; i < 2000; i++ {
		oid := OID(rng.Intn(50 * chunkSize))
		v := int32(rng.Intn(3)) // zero deletes
		tab.Set(oid, v)
		if v == 0 {
			delete(want, oid)
		} else {
			want[oid] = v
		}
	}
	if tab.Len() != len(want) {
		t.Fatalf("len = %d, model has %d", tab.Len(), len(want))
	}
	var last OID
	n := 0
	tab.ForEach(func(oid OID, v int32) {
		if n > 0 && oid <= last {
			t.Fatalf("ForEach visited %d after %d", uint64(oid), uint64(last))
		}
		if want[oid] != v {
			t.Fatalf("ForEach(%d) = %d, model has %d", uint64(oid), v, want[oid])
		}
		last = oid
		n++
	})
	if n != len(want) {
		t.Fatalf("ForEach visited %d entries, model has %d", n, len(want))
	}
}

// TestCreateWithOIDRejectsFarHorizon: an OID far past the allocation horizon
// is damage (a bit-flipped trace event, a corrupt snapshot). It must fail
// without sizing the table by it, and leave the store as it was.
func TestCreateWithOIDRejectsFarHorizon(t *testing.T) {
	s := NewStore()
	if _, err := s.CreateWithOID(1, ClassModule, 10, 0); err != nil {
		t.Fatal(err)
	}
	for _, oid := range []OID{2 + MaxOIDGap, 1 << 40, 1<<62 | 5, ^OID(0)} {
		_, err := s.CreateWithOID(oid, ClassModule, 10, 0)
		if !errors.Is(err, ErrOIDRange) {
			t.Errorf("CreateWithOID(%d) = %v, want ErrOIDRange", uint64(oid), err)
		}
		if s.Get(oid) != nil || s.IsRoot(oid) {
			t.Errorf("lookup of refused OID %d reports it present", uint64(oid))
		}
	}
	if s.Len() != 1 || s.NextOID() != 2 || s.totalBytes != 10 {
		t.Errorf("refused creates changed the store: len=%d next=%v bytes=%d", s.Len(), s.NextOID(), s.totalBytes)
	}
	if len(s.objects.dir) != 1 {
		t.Errorf("refused creates grew the directory to %d chunks", len(s.objects.dir))
	}
	// The last OID inside the gap is accepted, and so is any OID below a
	// horizon declared first (recovery recreates survivors that sit far
	// apart).
	if _, err := s.CreateWithOID(1+MaxOIDGap, ClassModule, 10, 0); err != nil {
		t.Errorf("OID at the edge of the gap refused: %v", err)
	}
	s.AdvanceNextOID(1 << 30)
	if _, err := s.CreateWithOID(1<<30-1, ClassModule, 10, 0); err != nil {
		t.Errorf("OID below a declared horizon refused: %v", err)
	}
}
