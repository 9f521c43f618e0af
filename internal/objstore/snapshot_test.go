package objstore

import (
	"reflect"
	"strings"
	"testing"
)

// TestRestoreStoreRefusesDuplicateRoot: a snapshot comes from a checkpoint
// file, and one that lists a root twice is damaged; it is refused rather than
// collapsed.
func TestRestoreStoreRefusesDuplicateRoot(t *testing.T) {
	st := &StoreSnapshot{
		Objects: []ObjectState{{OID: 1, Size: 10}, {OID: 2, Size: 10}},
		Roots:   []OID{1, 2, 2},
		NextOID: 3,
	}
	if _, err := RestoreStore(st); err == nil || !strings.Contains(err.Error(), "root oid:2 twice") {
		t.Errorf("RestoreStore with a root listed twice = %v, want a refusal naming it", err)
	}
	st.Roots = st.Roots[:2]
	if s, err := RestoreStore(st); err != nil {
		t.Errorf("RestoreStore without the duplicate: %v", err)
	} else if s.NumRoots() != 2 {
		t.Errorf("RestoreStore without the duplicate restored %d roots, want 2", s.NumRoots())
	}
}

func TestStoreSnapshotRoundTrip(t *testing.T) {
	s := NewStore()
	a := mustCreate(t, s, ClassModule, 64, 2)
	b := mustCreate(t, s, ClassAtomicPart, 20, 1)
	c := mustCreate(t, s, ClassAtomicPart, 30, 0)
	if err := s.AddRoot(a.OID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetSlot(a.OID, 0, b.OID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetSlot(b.OID, 0, c.OID); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(c.OID); err != nil {
		t.Fatal(err)
	}

	st := s.Snapshot()
	r, err := RestoreStore(st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Snapshot(), st) {
		t.Fatalf("snapshot round trip differs:\norig     %+v\nrestored %+v", st, r.Snapshot())
	}
	if r.NextOID() != s.NextOID() {
		t.Fatalf("NextOID = %v, want %v", r.NextOID(), s.NextOID())
	}
	// Identical subsequent behavior: the next created object gets the same OID.
	so := mustCreate(t, s, ClassDocument, 5, 0)
	ro := mustCreate(t, r, ClassDocument, 5, 0)
	if so.OID != ro.OID {
		t.Fatalf("post-restore OID %v, want %v", ro.OID, so.OID)
	}
}

func TestRestoreStoreRejectsCorruptSnapshot(t *testing.T) {
	s := NewStore()
	a := mustCreate(t, s, ClassModule, 64, 0)
	if err := s.AddRoot(a.OID); err != nil {
		t.Fatal(err)
	}
	good := s.Snapshot()

	bad := *good
	bad.Objects = append(append([]ObjectState(nil), good.Objects...), good.Objects[0])
	if _, err := RestoreStore(&bad); err == nil {
		t.Error("duplicate OID accepted")
	}

	bad = *good
	bad.Roots = []OID{999}
	if _, err := RestoreStore(&bad); err == nil {
		t.Error("root of absent object accepted")
	}

	bad = *good
	bad.NextOID = 1
	if _, err := RestoreStore(&bad); err == nil {
		t.Error("NextOID below existing objects accepted")
	}

	if _, err := RestoreStore(nil); err == nil {
		t.Error("nil snapshot accepted")
	}
}
