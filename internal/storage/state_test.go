package storage

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"odbgc/internal/objstore"
)

// restoreState decodes state onto objs and adopts every placed object, as
// gc.Heap.Load does, then checks the result.
func restoreState(state []byte, objs *objstore.Store) (*Manager, error) {
	r, rest, err := DecodeManager(state, objs)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%d bytes left after the state", len(rest))
	}
	objs.ForEach(func(o *objstore.Object) {
		if err == nil && o.PartPlus1 != 0 {
			err = r.Adopt(o)
		}
	})
	if err == nil {
		err = r.CheckInvariants()
	}
	return r, err
}

// unplacedCopy returns a store holding m's objects as recovery would, without
// placements.
func unplacedCopy(t *testing.T, m *Manager) *objstore.Store {
	t.Helper()
	objs := objstore.NewStore()
	m.store.ForEach(func(o *objstore.Object) {
		if _, err := objs.CreateWithOID(o.OID, o.Class, int(o.Size), len(o.Slots)); err != nil {
			t.Fatal(err)
		}
	})
	return objs
}

func TestManagerSnapshotRoundTrip(t *testing.T) {
	cfg := tinyConfig()
	cfg.BufferPages = 3
	m := newTestManager(t, cfg)
	for i := 1; i <= 9; i++ {
		if _, err := m.Allocate(objstore.OID(i), 30+5*i); err != nil {
			t.Fatal(err)
		}
	}
	m.SetIOClass(IOGC)
	if err := m.Touch(2, true); err != nil {
		t.Fatal(err)
	}
	m.SetIOClass(IOApp)
	if err := m.Touch(5, false); err != nil {
		t.Fatal(err)
	}

	st := m.AppendState(nil)
	r, err := restoreState(st, unplacedCopy(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if got := r.AppendState(nil); !bytes.Equal(got, st) {
		t.Fatalf("state round trip differs:\norig     %x\nrestored %x", st, got)
	}

	// The restored manager behaves identically: same placement decisions,
	// same I/O charges for the same operations.
	for _, mm := range []*Manager{m, r} {
		if _, err := mm.Allocate(100, 77); err != nil {
			t.Fatal(err)
		}
		if err := mm.Touch(1, true); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(m.AppendState(nil), r.AppendState(nil)) {
		t.Fatal("original and restored managers diverged after identical ops")
	}
}

// TestDecodeManagerRejectsCorruptState: a state a checkpoint cannot have
// written is refused, by DecodeManager or by the checks after it, and never
// restored as something else.
func TestDecodeManagerRejectsCorruptState(t *testing.T) {
	m := newTestManager(t, tinyConfig()) // 100-byte pages, 4 to a partition
	for oid := objstore.OID(1); oid <= 2; oid++ {
		if _, err := m.Allocate(oid, 40); err != nil { // both on page 0 of partition 0
			t.Fatal(err)
		}
	}
	prev := m.SetIOClass(IOGC)
	if err := m.Touch(1, true); err != nil { // p0/0 collector-dirty
		t.Fatal(err)
	}
	m.SetIOClass(prev)
	good := m.AppendState(nil)
	if _, err := restoreState(good, unplacedCopy(t, m)); err != nil {
		t.Fatalf("sound state refused: %v", err)
	}
	// Field offsets: the geometry and the partition count take 16 bytes, the
	// one partition's cursor and used bytes 8, each of the two placements 8
	// (PartPlus1, Offset); then the frame count and the one frame (partition,
	// index, flags).
	const cursor, used, place1, place2, frames = 16, 20, 24, 32, 40
	const frame = frames + 4
	u32 := func(off int, v uint32) func([]byte) { return func(b []byte) { le.PutUint32(b[off:], v) } }
	for _, tc := range []struct {
		name   string
		damage func([]byte)
		want   string
	}{
		{"placement in an unknown partition", u32(place1, 99), "unknown partition 98"},
		{"placement out of range", u32(place1+4, 1<<31), "out of range"},
		{"placement across a page boundary", u32(place2+4, 70), "spans a page boundary"},
		{"placement past the cursor", u32(cursor, 60), "past partition 0's cursor 60"},
		{"overlapping placements", u32(place2+4, 20), "overlap in partition 0"},
		{"used bytes that do not add up", u32(used, 1000), "used=1000"},
		{"cursor past the partition", u32(cursor, 401), "cursor 401 past"},
		{"frame in an unknown partition", u32(frame, 1), "page p1/0 with flags 0x3"},
		{"frame past the partition's pages", u32(frame+4, 4), "page p0/4 with flags 0x3"},
		{"frame with unknown flags", func(b []byte) { b[frame+8] = 7 }, "flags 0x7"},
		{"collector-dirty page buffered clean", func(b []byte) { b[frame+8] = 2 }, "collector-dirty page p0/0 in buffer snapshot is clean"},
		{"more frames than bytes", u32(frames, 1<<20), "entries"},
		{"unknown I/O class", func(b []byte) { b[len(b)-5] = 7 }, "I/O class 7"},
		{"allocation target", u32(len(good)-4, 1), "allocation target 1"},
	} {
		bad := bytes.Clone(good)
		tc.damage(bad)
		if _, err := restoreState(bad, unplacedCopy(t, m)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	for n := 0; n < len(good); n++ {
		if _, _, err := DecodeManager(good[:n], unplacedCopy(t, m)); err == nil {
			t.Errorf("state cut to %d of %d bytes accepted", n, len(good))
		}
	}
}
