package objstore

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mustCreate(t *testing.T, s *Store, class Class, size, nslots int) *Object {
	t.Helper()
	o, err := s.Create(class, size, nslots)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestCreateAssignsSequentialOIDs(t *testing.T) {
	s := NewStore()
	a := mustCreate(t, s, ClassAtomicPart, 100, 2)
	b := mustCreate(t, s, ClassConnection, 50, 1)
	if a.OID != 1 || b.OID != 2 {
		t.Fatalf("OIDs = %v, %v; want 1, 2", a.OID, b.OID)
	}
	if s.NextOID() != 3 {
		t.Fatalf("NextOID = %v, want 3", s.NextOID())
	}
	if s.Len() != 2 || s.TotalBytes() != 150 {
		t.Fatalf("Len=%d TotalBytes=%d, want 2/150", s.Len(), s.TotalBytes())
	}
}

func TestCreateWithOID(t *testing.T) {
	s := NewStore()
	if _, err := s.CreateWithOID(NilOID, ClassDocument, 10, 0); err == nil {
		t.Error("nil OID accepted")
	}
	o, err := s.CreateWithOID(7, ClassDocument, 10, 0)
	if err != nil || o.OID != 7 {
		t.Fatalf("CreateWithOID(7) = %v, %v", o, err)
	}
	if _, err := s.CreateWithOID(7, ClassDocument, 10, 0); err == nil {
		t.Error("duplicate OID accepted")
	}
	if _, err := s.CreateWithOID(9, ClassDocument, -1, 0); err == nil {
		t.Error("negative size accepted")
	}
	// Counter advances past explicit OIDs.
	if next := mustCreate(t, s, ClassDocument, 1, 0); next.OID != 8 {
		t.Errorf("Create after CreateWithOID(7) got OID %v, want 8", next.OID)
	}
}

func TestSetSlot(t *testing.T) {
	s := NewStore()
	a := mustCreate(t, s, ClassAtomicPart, 10, 2)
	b := mustCreate(t, s, ClassAtomicPart, 10, 0)

	old, err := s.SetSlot(a.OID, 0, b.OID)
	if err != nil || old != NilOID {
		t.Fatalf("SetSlot = %v, %v", old, err)
	}
	old, err = s.SetSlot(a.OID, 0, NilOID)
	if err != nil || old != b.OID {
		t.Fatalf("second SetSlot = %v, %v; want %v", old, err, b.OID)
	}
	if _, err := s.SetSlot(a.OID, 2, b.OID); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if _, err := s.SetSlot(a.OID, -1, b.OID); err == nil {
		t.Error("negative slot accepted")
	}
	if _, err := s.SetSlot(999, 0, b.OID); err == nil {
		t.Error("absent source accepted")
	}
	if _, err := s.SetSlot(a.OID, 0, 999); err == nil {
		t.Error("absent target accepted")
	}
}

func TestRemove(t *testing.T) {
	s := NewStore()
	a := mustCreate(t, s, ClassDocument, 40, 0)
	if err := s.AddRoot(a.OID); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(a.OID); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 || s.TotalBytes() != 0 {
		t.Errorf("after remove: Len=%d TotalBytes=%d", s.Len(), s.TotalBytes())
	}
	if s.IsRoot(a.OID) {
		t.Error("removed object still a root")
	}
	if err := s.Remove(a.OID); err == nil {
		t.Error("double remove accepted")
	}
}

func TestRoots(t *testing.T) {
	s := NewStore()
	a := mustCreate(t, s, ClassModule, 10, 0)
	b := mustCreate(t, s, ClassModule, 10, 0)
	if err := s.AddRoot(b.OID); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRoot(a.OID); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRoot(999); err == nil {
		t.Error("rooting absent object accepted")
	}
	roots := s.Roots()
	if len(roots) != 2 || roots[0] != a.OID || roots[1] != b.OID {
		t.Errorf("Roots() = %v, want sorted [%v %v]", roots, a.OID, b.OID)
	}
	s.RemoveRoot(a.OID)
	if s.IsRoot(a.OID) || !s.IsRoot(b.OID) {
		t.Error("RemoveRoot wrong effect")
	}
	s.RemoveRoot(a.OID) // idempotent
}

// buildChain creates root -> o1 -> o2 -> ... -> on.
func buildChain(s *Store, n int) []OID {
	oids := make([]OID, n)
	for i := range oids {
		o, err := s.Create(ClassAtomicPart, 10, 1)
		if err != nil {
			panic(err)
		}
		oids[i] = o.OID
		if i > 0 {
			if _, err := s.SetSlot(oids[i-1], 0, o.OID); err != nil {
				panic(err)
			}
		}
	}
	if err := s.AddRoot(oids[0]); err != nil {
		panic(err)
	}
	return oids
}

func TestReachable(t *testing.T) {
	s := NewStore()
	chain := buildChain(s, 5)
	orphan := mustCreate(t, s, ClassDocument, 99, 0)

	live := s.Reachable()
	if live.Len() != 5 {
		t.Fatalf("reachable = %d objects, want 5", live.Len())
	}
	if live.Get(orphan.OID) {
		t.Error("orphan reported reachable")
	}
	if s.GarbageBytes() != 99 {
		t.Errorf("GarbageBytes = %d, want 99", s.GarbageBytes())
	}

	// Cut the chain in the middle: the tail becomes garbage.
	if _, err := s.SetSlot(chain[1], 0, NilOID); err != nil {
		t.Fatal(err)
	}
	live = s.Reachable()
	if live.Len() != 2 {
		t.Errorf("after cut: reachable = %d, want 2", live.Len())
	}
	if s.GarbageBytes() != 99+30 {
		t.Errorf("after cut: GarbageBytes = %d, want 129", s.GarbageBytes())
	}
}

func TestReachableHandlesCycles(t *testing.T) {
	s := NewStore()
	a := mustCreate(t, s, ClassAtomicPart, 10, 1)
	b := mustCreate(t, s, ClassAtomicPart, 10, 1)
	if _, err := s.SetSlot(a.OID, 0, b.OID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetSlot(b.OID, 0, a.OID); err != nil {
		t.Fatal(err)
	}
	// Unrooted cycle: nothing reachable, everything garbage.
	if s.Reachable().Len() != 0 {
		t.Error("unrooted cycle reported reachable")
	}
	if s.GarbageBytes() != 20 {
		t.Errorf("GarbageBytes = %d, want 20", s.GarbageBytes())
	}
	// Root one member: both reachable.
	if err := s.AddRoot(a.OID); err != nil {
		t.Fatal(err)
	}
	if s.Reachable().Len() != 2 {
		t.Error("rooted cycle not fully reachable")
	}
}

func TestInDegrees(t *testing.T) {
	s := NewStore()
	a := mustCreate(t, s, ClassAtomicPart, 10, 2)
	b := mustCreate(t, s, ClassAtomicPart, 10, 2)
	c := mustCreate(t, s, ClassAtomicPart, 10, 0)
	for _, e := range [][3]interface{}{{a.OID, 0, b.OID}, {a.OID, 1, c.OID}, {b.OID, 0, c.OID}} {
		if _, err := s.SetSlot(e[0].(OID), e[1].(int), e[2].(OID)); err != nil {
			t.Fatal(err)
		}
	}
	in := s.InDegrees()
	if in[a.OID] != 0 || in[b.OID] != 1 || in[c.OID] != 2 {
		t.Errorf("InDegrees = %v", in)
	}
}

func TestStatsAndAverage(t *testing.T) {
	s := NewStore()
	mustCreate(t, s, ClassAtomicPart, 100, 0)
	mustCreate(t, s, ClassAtomicPart, 200, 0)
	mustCreate(t, s, ClassDocument, 300, 0)
	st := s.Stats()
	if st.Objects != 3 || st.TotalBytes != 600 {
		t.Errorf("Stats = %+v", st)
	}
	if st.ByClass[ClassAtomicPart].Count != 2 || st.ByClass[ClassAtomicPart].Bytes != 300 {
		t.Errorf("atomic class stats = %+v", st.ByClass[ClassAtomicPart])
	}
	if got := s.AverageObjectSize(); got != 200 {
		t.Errorf("AverageObjectSize = %v, want 200", got)
	}
	if NewStore().AverageObjectSize() != 0 {
		t.Error("empty store average not 0")
	}
}

func TestForEachDeterministicOrder(t *testing.T) {
	s := NewStore()
	for i := 0; i < 50; i++ {
		mustCreate(t, s, ClassConnection, 1, 0)
	}
	var prev OID
	s.ForEach(func(o *Object) {
		if o.OID <= prev {
			t.Fatalf("ForEach out of order: %v after %v", o.OID, prev)
		}
		prev = o.OID
	})
}

func TestClone(t *testing.T) {
	s := NewStore()
	a := mustCreate(t, s, ClassAtomicPart, 10, 2)
	b := mustCreate(t, s, ClassAtomicPart, 10, 0)
	if _, err := s.SetSlot(a.OID, 0, b.OID); err != nil {
		t.Fatal(err)
	}
	c := a.Clone()
	c.Slots[0] = NilOID
	if a.Slots[0] != b.OID {
		t.Error("Clone shares slot storage with original")
	}
}

// randomStore builds a store with n objects and random edges from seed.
func randomStore(seed int64, n int) *Store {
	rng := rand.New(rand.NewSource(seed))
	s := NewStore()
	oids := make([]OID, 0, n)
	for i := 0; i < n; i++ {
		o, err := s.Create(ClassAtomicPart, 1+rng.Intn(100), rng.Intn(4))
		if err != nil {
			panic(err)
		}
		oids = append(oids, o.OID)
	}
	for _, oid := range oids {
		o := s.Get(oid)
		for i := range o.Slots {
			if rng.Intn(2) == 0 {
				if _, err := s.SetSlot(oid, i, oids[rng.Intn(len(oids))]); err != nil {
					panic(err)
				}
			}
		}
	}
	for i := 0; i < 1+n/10; i++ {
		_ = s.AddRoot(oids[rng.Intn(len(oids))])
	}
	return s
}

// Property: the reachable set is closed under pointer traversal and
// contains every root.
func TestReachableClosureProperty(t *testing.T) {
	f := func(seed int64) bool {
		s := randomStore(seed, 60)
		live := s.Reachable()
		for _, r := range s.Roots() {
			if !live.Get(r) {
				return false
			}
		}
		closed := true
		live.ForEach(func(oid OID, _ bool) {
			for _, tgt := range s.Get(oid).Slots {
				if !tgt.IsNil() && !live.Get(tgt) {
					closed = false
				}
			}
		})
		return closed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: garbage bytes + live bytes == total bytes.
func TestGarbagePartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		s := randomStore(seed, 60)
		live := s.Reachable()
		liveBytes := 0
		live.ForEach(func(oid OID, _ bool) { liveBytes += s.Get(oid).Size })
		return liveBytes+s.GarbageBytes() == s.TotalBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: removing a non-root object never increases the reachable set.
func TestRemoveMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		s := randomStore(seed, 40)
		before := s.Reachable().Len()
		// Remove the garbage objects; reachable set must be unchanged.
		live := s.Reachable()
		var garbage []OID
		s.ForEach(func(o *Object) {
			if !live.Get(o.OID) {
				garbage = append(garbage, o.OID)
			}
		})
		for _, oid := range garbage {
			// Clear dangling references from other garbage first is not
			// needed: Reachable skips absent targets.
			if err := s.Remove(oid); err != nil {
				return false
			}
		}
		return s.Reachable().Len() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
