package fault

import (
	"errors"
	"testing"

	"odbgc/internal/objstore"
	"odbgc/internal/simerr"
	"odbgc/internal/storage/disk"
)

// seedStore builds a small committed store on dir and closes it.
func seedStore(t *testing.T, dir string) {
	t.Helper()
	s, _, err := disk.Open(disk.Options{FS: disk.OSFS{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LogAlloc(1, objstore.ClassModule, 100, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.LogRoot(1, true); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDiskChaosTornWriteClassifies(t *testing.T) {
	p := Profile{TornWriteProb: 1}
	fs := NewDiskChaos(disk.OSFS{Dir: t.TempDir()}, p, 7)
	s, _, err := disk.Open(disk.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = s.Close() }()
	if err := s.LogAlloc(1, objstore.ClassModule, 100, 1); err != nil {
		t.Fatal(err)
	}
	err = s.Commit()
	if err == nil {
		t.Fatal("commit through a 100% torn-write disk succeeded")
	}
	if !errors.Is(err, simerr.ErrTornWrite) {
		t.Errorf("commit error is not a torn write: %v", err)
	}
	if got := simerr.Classify(err); got != simerr.ClassTornWrite {
		t.Errorf("Classify = %q", got)
	}
	if fs.Stats().TornWrites == 0 {
		t.Error("no torn write counted")
	}
}

func TestDiskChaosBitRotFailsRecoveryAsCorruption(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir)
	fs := NewDiskChaos(disk.OSFS{Dir: dir}, Profile{BitRotProb: 1}, 11)
	_, _, err := disk.Open(disk.Options{FS: fs})
	if err == nil {
		t.Fatal("recovery through 100% bit rot succeeded")
	}
	class := simerr.Classify(err)
	if class != simerr.ClassRecoveryFailed && class != simerr.ClassTornWrite {
		t.Errorf("rot classified as %q, want corruption", class)
	}
	if fs.Stats().BitFlips == 0 {
		t.Error("no bit flip counted")
	}
}

func TestDiskChaosFsyncLiesAreCountedAndSilent(t *testing.T) {
	fs := NewDiskChaos(disk.OSFS{Dir: t.TempDir()}, Profile{FsyncLieProb: 1}, 3)
	s, _, err := disk.Open(disk.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.LogAlloc(1, objstore.ClassModule, 10, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatalf("a lying fsync must not surface an error: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if fs.Stats().FsyncLies == 0 {
		t.Error("no fsync lie counted")
	}
}

func TestDiskChaosDeterministic(t *testing.T) {
	run := func() DiskChaosStats {
		dir := t.TempDir()
		seedStore(t, dir)
		p := Profile{TornWriteProb: 0.3, FsyncLieProb: 0.3, ShortReadProb: 0.2, BitRotProb: 0.2}
		fs := NewDiskChaos(disk.OSFS{Dir: dir}, p, 99)
		s, _, err := disk.Open(disk.Options{FS: fs})
		if err == nil {
			// Chaos may or may not break recovery at these rates; drive a
			// few commits if it survived.
			for i := 0; i < 5; i++ {
				_ = s.LogAlloc(objstore.OID(100+i), objstore.ClassManual, 10, 0)
				_ = s.Commit()
			}
			_ = s.Close()
		}
		return fs.Stats()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed produced different fault schedules: %+v vs %+v", a, b)
	}
}
