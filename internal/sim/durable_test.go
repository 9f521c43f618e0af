package sim

import (
	"bytes"
	"errors"
	"testing"

	"odbgc/internal/core"
	"odbgc/internal/objstore"
	"odbgc/internal/oo7"
	"odbgc/internal/simerr"
	"odbgc/internal/storage/disk"
	"odbgc/internal/storage/disk/crashtest"
	"odbgc/internal/trace"
)

// objectImage is the checkpoint image of objs alone, as Checkpoint writes it:
// two stores with equal images hold the same objects, slots, roots and OID
// horizon.
func objectImage(t *testing.T, objs *objstore.Store) []byte {
	t.Helper()
	img, err := disk.WriteImage(objs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// tinyTrace generates a scaled-down OO7 run (~5k events): big enough to
// cross phases and trigger collections, small enough that journaling every
// disk write stays cheap.
func tinyTrace(t *testing.T, seed int64) *trace.Trace {
	t.Helper()
	p := oo7.SmallPrime(3)
	p.NumCompPerModule = 30
	p.NumAssmLevels = 4
	tr, err := oo7.FullTrace(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// fixedSim builds a simulator under a fixed-rate policy aggressive enough
// that collections (and thus WAL reclaim records) actually happen.
func fixedSim(t *testing.T) *Simulator {
	t.Helper()
	pol, err := core.NewFixedRate(60)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// durableSim is fixedSim with its heap logging to a disk store over an
// in-memory journaling FS. The simulator persists nothing itself: the test
// drives the store through durableStep.
func durableSim(t *testing.T) (*Simulator, *disk.Store, *crashtest.JournalFS) {
	t.Helper()
	fs := crashtest.NewJournalFS()
	st, _, err := disk.Open(disk.Options{FS: fs, Fsync: disk.FsyncGroup, GroupEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	s := fixedSim(t)
	s.Heap().SetDurable(st)
	return s, st, fs
}

// durableStep steps one event and commits what it staged, with any
// collection at its boundary, as one batch, so a crash loses whole events;
// a phase event also checkpoints, bounding replay to one phase of WAL. An
// event the simulator refuses commits nothing.
func durableStep(t *testing.T, s *Simulator, st *disk.Store, e *trace.Event) error {
	t.Helper()
	if err := s.Step(e); err != nil {
		return err
	}
	if _, err := s.Heap().Commit(); err != nil {
		t.Fatal(err)
	}
	if e.Kind == trace.KindPhase {
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	return nil
}

// TestSnapshotRoundTripsThroughDiskBackend is the satellite round-trip:
// run a simulation against the durable backend, crash it (materialize the
// journaled bytes), recover, and demand the recovered state's image is
// byte-identical to the live store's — same objects, slots, roots, and OID
// horizon.
func TestSnapshotRoundTripsThroughDiskBackend(t *testing.T) {
	tr := tinyTrace(t, 5)
	s, st, fs := durableSim(t)
	for i := range tr.Events {
		if err := durableStep(t, s, st, &tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if res.TotalReclaimed == 0 {
		t.Fatal("run reclaimed nothing; the round trip would not cover reclaim records")
	}
	liveImage := objectImage(t, s.Heap().Store())
	liveDigest := st.Digest()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash after the clean close: every byte is journaled, so the image
	// is the full on-disk state.
	img := fs.Image()
	rec, info, err := disk.Open(disk.Options{FS: crashtest.FromImage(img)})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer func() { _ = rec.Close() }()
	if info.Digest != liveDigest {
		t.Fatal("recovered digest differs from the live store's committed digest")
	}
	// The store checkpointed after Finish, so recovery must replay nothing.
	if info.BatchesReplayed != 0 {
		t.Errorf("post-checkpoint recovery replayed %d batches, want 0", info.BatchesReplayed)
	}
	if got := objectImage(t, rec.Objects()); !bytes.Equal(got, liveImage) {
		t.Fatal("recovered image is not byte-identical to the live store's")
	}
}

// TestDurableMidRunCrashMatchesLiveState kills the store mid-run with no
// final checkpoint: the WAL tail alone must reproduce the live heap at the
// last committed event, exercising replay of alloc/set/root/reclaim
// records together (durableStep commits once per event, so the durable
// state tracks the live store exactly).
func TestDurableMidRunCrashMatchesLiveState(t *testing.T) {
	tr := tinyTrace(t, 7)
	s, st, fs := durableSim(t)
	n := len(tr.Events) / 2
	for i := range tr.Events[:n] {
		if err := durableStep(t, s, st, &tr.Events[i]); err != nil {
			t.Fatal(err)
		}
	}
	if s.Heap().Collections() == 0 {
		t.Fatal("no collections before the crash point; reclaim replay not covered")
	}
	liveImage := objectImage(t, s.Heap().Store())
	liveDigest := st.Digest()

	// SIGKILL: keep every journaled write, synced or not, and recover.
	img := fs.Materialize(len(fs.Ops()), -1, true)
	rec, info, err := disk.Open(disk.Options{FS: crashtest.FromImage(img)})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer func() { _ = rec.Close() }()
	if info.Digest != liveDigest {
		t.Fatal("recovered digest differs from the live store at the crash point")
	}
	if info.BatchesReplayed == 0 {
		t.Error("mid-run recovery replayed no batches; the crash point is not exercising the WAL")
	}
	if got := objectImage(t, rec.Objects()); !bytes.Equal(got, liveImage) {
		t.Fatal("recovered image is not byte-identical to the live store's at the crash point")
	}
}

// TestUnrootOfAbsentObjectKeepsRecovery: a damaged trace's unroot of an object
// that does not exist is refused as a corrupt trace before the heap logs it,
// so the WAL holds nothing recovery could not apply. It used to be committed,
// and every later open failed on "root change on absent oid:7".
func TestUnrootOfAbsentObjectKeepsRecovery(t *testing.T) {
	s, st, fs := durableSim(t)
	for _, e := range []trace.Event{
		{Kind: trace.KindCreate, OID: 1, Size: 64},
		{Kind: trace.KindRoot, OID: 1, Size: 1},
	} {
		if err := durableStep(t, s, st, &e); err != nil {
			t.Fatal(err)
		}
	}
	if err := durableStep(t, s, st, &trace.Event{Kind: trace.KindRoot, OID: 7}); !errors.Is(err, simerr.ErrCorruptTrace) || !errors.Is(err, objstore.ErrAbsent) {
		t.Errorf("unroot of an absent object: %v, want a corrupt-trace error wrapping objstore.ErrAbsent", err)
	}
	if err := st.Commit(); err != nil {
		t.Fatal(err)
	}
	img := fs.Materialize(len(fs.Ops()), -1, true)
	rec, _, err := disk.Open(disk.Options{FS: crashtest.FromImage(img)})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if rec.NumObjects() != 1 {
		t.Errorf("recovered %d objects, want 1", rec.NumObjects())
	}
	_ = rec.Close()
}

// TestAccessOfAbsentObjectIsCorruptTrace: a damaged trace's access or update of
// an object that does not exist is a corrupt trace, as its unroot is. Both used
// to be refused with a plain error, classified as an ordinary failure.
func TestAccessOfAbsentObjectIsCorruptTrace(t *testing.T) {
	for _, kind := range []trace.Kind{trace.KindAccess, trace.KindUpdate} {
		t.Run(kind.String(), func(t *testing.T) {
			s := fixedSim(t)
			if err := s.Step(&trace.Event{Kind: trace.KindCreate, OID: 1, Size: 64}); err != nil {
				t.Fatal(err)
			}
			if err := s.Step(&trace.Event{Kind: kind, OID: 7}); !errors.Is(err, simerr.ErrCorruptTrace) || !errors.Is(err, objstore.ErrAbsent) {
				t.Errorf("%v of an absent object: %v, want a corrupt-trace error wrapping objstore.ErrAbsent", kind, err)
			}
			if err := s.Step(&trace.Event{Kind: kind, OID: 1}); err != nil {
				t.Errorf("%v of the object that exists: %v", kind, err)
			}
		})
	}
}

// TestOverwriteOfAbsentObjectIsCorruptTrace: a damaged trace's overwrite in an
// object that does not exist is a corrupt trace, as its access is.
func TestOverwriteOfAbsentObjectIsCorruptTrace(t *testing.T) {
	s := fixedSim(t)
	if err := s.Step(&trace.Event{Kind: trace.KindCreate, OID: 1, Size: 64, Slots: 1}); err != nil {
		t.Fatal(err)
	}
	e := trace.Event{Kind: trace.KindOverwrite, OID: 7, Slot: 0, Old: objstore.NilOID, New: 1}
	if err := s.Step(&e); !errors.Is(err, simerr.ErrCorruptTrace) || !errors.Is(err, objstore.ErrAbsent) {
		t.Errorf("%v: %v, want a corrupt-trace error wrapping objstore.ErrAbsent", e.String(), err)
	}
}
