package gc

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"odbgc/internal/objstore"
	"odbgc/internal/storage/disk"
)

// buildImageHeap assembles a heap with cross-partition references, oracle
// garbage, and overwrite history — every field the image must carry.
func buildImageHeap(t *testing.T) *Heap {
	t.Helper()
	h := testHeap(t)
	for oid := objstore.OID(1); oid <= 8; oid++ {
		mk(t, h, oid, 100, 2)
	}
	root(t, h, 1)
	link(t, h, 1, 0, 5) // cross-partition: 1 is in p0, 5 in p1
	link(t, h, 1, 1, 2)
	link(t, h, 5, 0, 6)
	link(t, h, 2, 0, 3)
	unlink(t, h, 2, 0, 3) // 3 dead, 3's subtree empty
	link(t, h, 2, 0, 4)   // keep 4 live: partition 0 gets collected in tests
	if err := h.RecordOracleDead([]objstore.OID{3}); err != nil {
		t.Fatal(err)
	}
	return h
}

// imageWith is the checkpoint image of h's objects and storage manager with
// the given heap counters as its one record.
func imageWith(t *testing.T, h *Heap, counters []byte) []byte {
	t.Helper()
	img, err := disk.WriteImage(h.Store(), h.Disk(), counters)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// image is h's state image: its objects, the storage manager's state and its
// counters (disk.WriteImage). Two heaps with equal images hold the same
// objects, flags, placements, buffer, I/O counts and counters.
func image(t *testing.T, h *Heap) []byte { return imageWith(t, h, h.AppendState(nil)) }

// restore loads img into a heap of its own: disk.ReadImage, gc.Heap.Load,
// then the counters.
func restore(img []byte) (*Heap, error) {
	objs, m, recs, err := disk.ReadImage(img)
	if err != nil {
		return nil, err
	}
	h := NewHeap(objs, m)
	if err := h.Load(objs); err != nil {
		return nil, err
	}
	if err := h.DecodeState(recs[0]); err != nil {
		return nil, err
	}
	return h, h.CheckInvariants()
}

// twin restores h's image.
func twin(t *testing.T, h *Heap) *Heap {
	t.Helper()
	r, err := restore(image(t, h))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestHeapImageRoundTrip(t *testing.T) {
	h := buildImageHeap(t)
	img := image(t, h)
	r := twin(t, h)
	if !bytes.Equal(image(t, r), img) {
		t.Fatal("the restored heap's image differs from the one it was restored from")
	}

	// Both heaps must behave identically afterwards: collect the partition
	// holding the garbage and compare results and images.
	p := mustPart(t, h, 3)
	resOrig, err := h.Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	resRest, err := r.Collect(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resOrig, resRest) {
		t.Fatalf("collections diverged:\norig     %+v\nrestored %+v", resOrig, resRest)
	}
	if !bytes.Equal(image(t, h), image(t, r)) {
		t.Fatal("heaps diverged after identical collections")
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoredHeapRejectsCorruptState: an image the loader accepts can still
// hold a heap that is not one: counters that do not add up, an oracle-dead
// flag on a reachable object, a record of the wrong length. Each is refused.
func TestRestoredHeapRejectsCorruptState(t *testing.T) {
	h := buildImageHeap(t)
	if _, err := restore(image(t, h)); err != nil {
		t.Fatalf("sound image refused: %v", err)
	}
	counters := h.AppendState(nil)
	for name, tc := range map[string]struct {
		img  func() []byte
		want string
	}{
		"ledger mismatch": {func() []byte {
			bad := append([]byte(nil), counters...)
			le.PutUint64(bad[len(bad)-24:], h.TotalGarbageBytes()+7) // the garbage total
			return imageWith(t, h, bad)
		}, "ledger mismatch"},
		"short counters": {func() []byte { return imageWith(t, h, counters[:len(counters)-1]) }, "heap state of"},
		"reachable object flagged dead": {func() []byte {
			h.Store().Get(2).Dead = true
			defer func() { h.Store().Get(2).Dead = false }()
			return image(t, h)
		}, "is reachable"},
	} {
		if _, err := restore(tc.img()); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: restore = %v, want an error containing %q", name, err, tc.want)
		}
	}
}
