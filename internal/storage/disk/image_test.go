package disk

import (
	"bytes"
	"testing"

	"odbgc/internal/objstore"
	"odbgc/internal/storage"
)

// TestImageRoundTrip: an image read back holds what was written — objects,
// slots, roots, oracle-dead flags, placements, the horizon, the manager's
// state and the records — and writes back to the same bytes; the store it
// returns hands out the OID the written one would next.
func TestImageRoundTrip(t *testing.T) {
	img, state := stateImage(t)
	objs, m, recs, err := ReadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if objs.Len() != 40 || objs.NumRoots() != 10 || objs.NextOID() != 41 {
		t.Errorf("read %d objects, %d roots, horizon %v; want 40, 10, oid:41", objs.Len(), objs.NumRoots(), objs.NextOID())
	}
	dead := 0
	objs.ForEach(func(o *objstore.Object) {
		if o.Dead {
			dead++
		}
		if o.PartPlus1 == 0 || o.Slots[0] != o.OID-1 || o.Root != (o.OID%4 == 0) {
			t.Errorf("%v read back as placed in %d, slots %v, root %v", o.OID, o.PartPlus1, o.Slots, o.Root)
		}
	})
	if dead != 8 {
		t.Errorf("%d objects read back oracle-dead, want 8", dead)
	}
	if got := m.AppendState(nil); !bytes.Equal(got, state) {
		t.Error("the manager read back holds another state")
	}
	if len(recs) != 4 || string(recs[2]) != "selection" {
		t.Errorf("read %d records, the third %q", len(recs), recs[min(2, len(recs)-1)])
	}
	again, err := WriteImage(objs, m, recs...)
	if err != nil || !bytes.Equal(again, img) {
		t.Fatalf("the image read back writes %d other bytes (%v)", len(again), err)
	}
	if o, err := objs.Create(objstore.ClassModule, 10, 0); err != nil || o.OID != 41 {
		t.Errorf("the store read back creates %v (%v), want oid:41", o, err)
	}
	if _, _, _, err := ReadImage(smallImage(t)); err == nil {
		t.Error("an image without a state chain read as one with")
	}
}

// TestImageSparseSurvivors: objects may sit further apart than the store's
// create gap as long as they lie below the image's horizon, which reading
// declares before the objects.
func TestImageSparseSurvivors(t *testing.T) {
	objs := objstore.NewStore()
	objs.AdvanceNextOID(4 + 5*objstore.MaxOIDGap)
	for _, oid := range []objstore.OID{3, 3 + 5*objstore.MaxOIDGap} {
		if _, err := objs.CreateWithOID(oid, objstore.ClassModule, 10, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := objs.AddRoot(3); err != nil {
		t.Fatal(err)
	}
	m, err := storage.NewManager(storage.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	m.UseStore(objs) // the objects stay unplaced
	img, err := WriteImage(objs, m)
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := ReadImage(img)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.NextOID() != objs.NextOID() || !got.IsRoot(3) {
		t.Errorf("read len=%d next=%v root=%v", got.Len(), got.NextOID(), got.IsRoot(3))
	}
}
