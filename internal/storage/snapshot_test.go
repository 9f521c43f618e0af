package storage

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"odbgc/internal/objstore"
)

// opErr is a test injector failing the nth call with a fixed error.
type opErr struct {
	n   int
	err error
}

func (o *opErr) BeforeOp(write bool) error {
	o.n--
	if o.n == 0 {
		return o.err
	}
	return nil
}

func TestFaultInjectorAbortsBeforeMutation(t *testing.T) {
	m := newTestManager(t, tinyConfig())
	if _, err := m.Allocate(1, 50); err != nil {
		t.Fatal(err)
	}
	before := m.Snapshot()
	boom := errors.New("boom")
	m.SetFaultInjector(&opErr{n: 1, err: boom})

	if _, err := m.Allocate(2, 50); !errors.Is(err, boom) {
		t.Fatalf("allocate under fault: %v, want boom", err)
	}
	if err := m.Touch(1, true); !errors.Is(err, boom) {
		// First call consumed the fault; re-arm.
		m.SetFaultInjector(&opErr{n: 1, err: boom})
		if err := m.Touch(1, true); !errors.Is(err, boom) {
			t.Fatalf("touch under fault: %v, want boom", err)
		}
	}
	m.SetFaultInjector(&opErr{n: 1, err: boom})
	if err := m.ReadPartition(0); !errors.Is(err, boom) {
		t.Fatalf("scan under fault: %v, want boom", err)
	}
	m.SetFaultInjector(&opErr{n: 1, err: boom})
	if _, err := m.FlushGCDirty(); !errors.Is(err, boom) {
		t.Fatalf("flush under fault: %v, want boom", err)
	}

	// A failed op must not have mutated anything: the snapshot is unchanged,
	// and retrying after the fault clears succeeds.
	m.SetFaultInjector(nil)
	if after := m.Snapshot(); !reflect.DeepEqual(before, after) {
		t.Fatalf("state mutated by faulted ops:\nbefore %+v\nafter  %+v", before, after)
	}
	if _, err := m.Allocate(2, 50); err != nil {
		t.Fatalf("retry after fault cleared: %v", err)
	}
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

	st := m.Snapshot()
	r, err := RestoreManager(st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Snapshot(), st) {
		t.Fatalf("snapshot round trip differs:\norig     %+v\nrestored %+v", st, r.Snapshot())
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
	if !reflect.DeepEqual(m.Snapshot(), r.Snapshot()) {
		t.Fatal("original and restored managers diverged after identical ops")
	}
}

func TestRestoreManagerRejectsCorruptState(t *testing.T) {
	m := newTestManager(t, tinyConfig())
	if _, err := m.Allocate(1, 50); err != nil {
		t.Fatal(err)
	}
	good := m.Snapshot()

	bad := *good
	bad.Placements = append([]PlacementEntry(nil), good.Placements...)
	bad.Placements[0].Placement.Part = 99
	if _, err := RestoreManager(&bad); err == nil {
		t.Error("placement into unknown partition accepted")
	}

	bad = *good
	bad.Placements = append(append([]PlacementEntry(nil), good.Placements...), good.Placements[0])
	if _, err := RestoreManager(&bad); err == nil {
		t.Error("duplicate placement accepted")
	}

	bad = *good
	bad.Partitions = append([]PartitionState(nil), good.Partitions...)
	bad.Partitions[0].Used += 1000
	if _, err := RestoreManager(&bad); err == nil {
		t.Error("used-byte mismatch accepted")
	}

	// The table stores neither the page nor wide offsets: a damaged one must
	// be refused, not silently repaired or truncated.
	for name, damage := range map[string]func(*Placement){
		"page":     func(p *Placement) { p.Page++ },
		"size":     func(p *Placement) { p.Size = 0 },
		"offset":   func(p *Placement) { p.Offset += 1 << 32 },
		"overflow": func(p *Placement) { p.Size = 1<<63 - 1 },
	} {
		bad = *good
		bad.Placements = append([]PlacementEntry(nil), good.Placements...)
		damage(&bad.Placements[0].Placement)
		if _, err := RestoreManager(&bad); err == nil {
			t.Errorf("placement with damaged %s accepted", name)
		}
	}

	// The collector-dirty flag lives on a buffered, dirty frame. An entry
	// naming any other page has nowhere to go and used to be dropped at the
	// next flush: the restored manager was not the one that was saved.
	prev := m.SetIOClass(IOGC)
	if err := m.Touch(1, true); err != nil {
		t.Fatal(err)
	}
	m.SetIOClass(prev)
	good = m.Snapshot()
	if len(good.GCDirty) != 1 || len(good.Buffer) != 1 || !good.Buffer[0].Dirty {
		t.Fatalf("fixture: GCDirty %v, Buffer %v", good.GCDirty, good.Buffer)
	}
	if _, err := RestoreManager(good); err != nil {
		t.Fatalf("sound state with a collector-dirty page refused: %v", err)
	}
	for name, damage := range map[string]func(*ManagerState){
		"not buffered":   func(st *ManagerState) { st.GCDirty = []PageID{{Part: 0, Index: 3}} },
		"buffered clean": func(st *ManagerState) { st.Buffer = []FrameState{{Page: good.Buffer[0].Page}} },
		"listed twice":   func(st *ManagerState) { st.GCDirty = append(st.GCDirty[:1:1], st.GCDirty[0]) },
	} {
		bad = *good
		damage(&bad)
		_, err := RestoreManager(&bad)
		if err == nil {
			t.Errorf("collector-dirty page %s accepted", name)
		} else if !strings.Contains(err.Error(), bad.GCDirty[0].String()) {
			t.Errorf("collector-dirty page %s: error %q does not name the page", name, err)
		}
	}

	if _, err := RestoreManager(nil); err == nil {
		t.Error("nil state accepted")
	}
}
