package fault

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"odbgc/internal/objstore"
	"odbgc/internal/simerr"
	"odbgc/internal/storage/disk"
	"odbgc/internal/storage/disk/crashtest"
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

// TestDiskFaultClasses maps each DiskChaos class, injected at every
// operation of Open on a seeded store or of one Commit on it, to the
// simerr class the operation must return (ClassOK: it succeeds). fires says
// whether the operation meets the class at all: a commit reads nothing and
// an open of a checkpointed store writes nothing, so those rows must count
// no fault. Rot that sits in the WAL file itself, rather than in what a read
// returns, has no row: recovery reads it as a torn tail and rolls back, and
// telling it apart needs a durable record of how far the WAL was synced.
//
// The floor follows: seeds 1–32 each power-cut a run whose fsyncs lied
// (fsyncLieFloor). A lie on a checkpoint's sync may leave the older image
// beside a WAL the next commit already cut; recovery then refuses, which
// the rows allow, rather than open a state with a gap.
func TestDiskFaultClasses(t *testing.T) {
	rows := []struct {
		name   string
		at     string // "open" or "commit"
		faults DiskFaults
		want   simerr.Class
		fires  bool
	}{
		{"torn write/open", "open", DiskFaults{TornWriteProb: 1}, simerr.ClassOK, false},
		{"torn write/commit", "commit", DiskFaults{TornWriteProb: 1}, simerr.ClassTornWrite, true},
		{"fsync lie/open", "open", DiskFaults{FsyncLieProb: 1}, simerr.ClassOK, false},
		{"fsync lie/commit", "commit", DiskFaults{FsyncLieProb: 1}, simerr.ClassOK, true},
		{"short read/open", "open", DiskFaults{ShortReadProb: 1}, simerr.ClassOK, true},
		{"short read/commit", "commit", DiskFaults{ShortReadProb: 1}, simerr.ClassOK, false},
		{"bit rot/open", "open", DiskFaults{BitRotProb: 1}, simerr.ClassRecoveryFailed, true},
		{"bit rot/commit", "commit", DiskFaults{BitRotProb: 1}, simerr.ClassOK, false},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			dir := t.TempDir()
			seedStore(t, dir)
			fs := NewDiskChaos(disk.OSFS{Dir: dir}, DiskFaults{}, 7)
			if r.at == "open" {
				fs.p = r.faults
			}
			s, _, err := disk.Open(disk.Options{FS: fs})
			if err == nil && r.at == "commit" {
				if err = s.LogAlloc(2, objstore.ClassModule, 100, 1); err != nil {
					t.Fatal(err)
				}
				fs.p = r.faults
				err = s.Commit()
			}
			if s != nil {
				_ = s.Close()
			}
			got := simerr.Classify(err)
			t.Logf("%+v: %v", fs.Stats(), err)
			if got != r.want {
				t.Errorf("%s classified %q, want %q: %v", r.at, got, r.want, err)
			}
			if fired := fs.Stats() != (DiskChaosStats{}); fired != r.fires {
				t.Errorf("faults counted %+v; want any: %v", fs.Stats(), r.fires)
			}
		})
	}
	refusals := 0
	for seed := int64(1); seed <= 32; seed++ {
		t.Run(fmt.Sprintf("fsync lie/power cut/seed=%d", seed), func(t *testing.T) {
			if fsyncLieFloor(t, seed) {
				refusals++
			}
		})
	}
	t.Logf("%d of 32 power cuts after lying fsyncs refused to recover", refusals)
}

// floorCommits is the length of each run TestDiskFaultClasses power-cuts
// under lying fsyncs; the store is checkpointed after every seventh commit,
// so the last two batches reach recovery through the WAL alone.
const floorCommits = 30

// fsyncLieFloor runs floorCommits FsyncAlways commits on a journaling
// filesystem whose fsyncs lie at 30 %, then cuts the power, which keeps only
// what a real sync covered. A lie may lose acknowledged batches, but only
// those after the last batch the journal shows a real WAL sync after (the
// floor): recovery must land exactly on a commit boundary at or past it, or
// refuse as recovery_failed. It reports a refusal.
func fsyncLieFloor(t *testing.T, seed int64) (refused bool) {
	jfs := crashtest.NewJournalFS()
	fs := NewDiskChaos(jfs, DiskFaults{FsyncLieProb: 0.3}, seed)
	s, _, err := disk.Open(disk.Options{FS: fs, Fsync: disk.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	digests := [][32]byte{s.Digest()} // digests[i]: the state after batch i
	var walEnds []int                 // walEnds[i]: journal length past batch i+1's WAL write
	for c := 1; c <= floorCommits; c++ {
		oid := objstore.OID(c)
		if err := s.LogAlloc(oid, objstore.ClassModule, 100, 1); err != nil {
			t.Fatal(err)
		}
		if err := s.LogRoot(oid, true); err != nil {
			t.Fatal(err)
		}
		before := len(jfs.Ops())
		if err := s.Commit(); err != nil {
			t.Fatalf("commit %d: %v", c, err)
		}
		w := slices.IndexFunc(jfs.Ops()[before:], func(op crashtest.Op) bool { return op.Kind == crashtest.OpWrite })
		walEnds = append(walEnds, before+w+1)
		digests = append(digests, s.Digest())
		if c%7 == 0 {
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("checkpoint after commit %d: %v", c, err)
			}
		}
	}
	ops := jfs.Ops()
	synced, heapSyncs := 0, 0
	for i, op := range ops {
		if op.Kind == crashtest.OpSync && op.File == "wal.log" {
			synced = i + 1
		}
		if op.Kind == crashtest.OpSync && op.File == "heap.db" {
			heapSyncs++
		}
	}
	floor := 0
	for i, end := range walEnds {
		if end <= synced {
			floor = i + 1
		}
	}
	re, info, err := disk.Open(disk.Options{FS: crashtest.FromImage(jfs.Materialize(len(ops), 0, false))})
	if err != nil {
		t.Logf("%+v, %d of %d checkpoints synced: %v", fs.Stats(), heapSyncs, floorCommits/7, err)
		if !errors.Is(err, simerr.ErrRecoveryFailed) {
			t.Errorf("recovery refused as %q, want recovery_failed: %v", simerr.Classify(err), err)
		}
		if heapSyncs == floorCommits/7 {
			t.Error("recovery refused, yet no fsync lied across a checkpoint")
		}
		return true
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	switch at := slices.Index(digests, info.Digest); {
	case at < 0:
		t.Error("recovered a state no commit left")
	case at < floor:
		t.Errorf("recovered batch %d, below the floor %d", at, floor)
	}
	if fs.Stats().FsyncLies == 0 {
		t.Error("no fsync lie counted")
	}
	return false
}

func TestDiskChaosDeterministic(t *testing.T) {
	run := func() DiskChaosStats {
		dir := t.TempDir()
		seedStore(t, dir)
		p := DiskFaults{TornWriteProb: 0.3, FsyncLieProb: 0.3, ShortReadProb: 0.2, BitRotProb: 0.2}
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
