package crashtest

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"odbgc/internal/objstore"
	"odbgc/internal/storage/disk"
)

// tornCuts picks the byte counts at which to tear a write: mid-header,
// mid-record, and every WAL record boundary inside the write (a batch
// write carries several records, and a kill between any two of them is a
// distinct on-disk state). A heap.db write longer than a page is a run of
// checkpoint pages: it is cut at every page boundary inside it — "the first
// k pages of the image landed" — and inside every page as a write of that
// page alone is.
func tornCuts(op Op) []int {
	n := len(op.Data)
	if op.Kind != OpWrite || n == 0 {
		return nil
	}
	cuts := []int{1, n / 2, n - 1}
	if op.File == "wal.log" {
		off := 0
		for off+8 <= n {
			rec := 8 + int(binary.LittleEndian.Uint32(op.Data[off:]))
			if off+rec > n {
				break
			}
			off += rec
			cuts = append(cuts, off)
		}
	} else if n > disk.PageSize {
		for page := 0; page < n; page += disk.PageSize {
			cuts = append(cuts, page, page+1, page+disk.PageSize/2, page+disk.PageSize-1)
		}
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	// A cut of n bytes is the full write; the k+1 crash point covers it.
	for len(cuts) > 0 && cuts[len(cuts)-1] >= n {
		cuts = cuts[:len(cuts)-1]
	}
	return slices.DeleteFunc(cuts, func(c int) bool { return c <= 0 })
}

// durabilityFloor returns the highest batch sequence guaranteed durable at
// a crash just before op k. With keepUnsynced (SIGKILL, kernel flushed),
// a batch is durable once its WAL write is journaled; with a power cut,
// only once a WAL fsync follows the write.
func durabilityFloor(run *Run, k int, keepUnsynced bool) uint64 {
	horizon := k
	if !keepUnsynced {
		horizon = 0
		for i, op := range run.FS.Ops() {
			if i >= k {
				break
			}
			if op.File == "wal.log" && op.Kind == OpSync {
				horizon = i + 1
			}
		}
	}
	floor := uint64(0)
	for _, c := range run.Commits {
		if c.OpAfterWrite <= horizon {
			floor = c.Seq
		}
	}
	return floor
}

// recoverImage opens the backend over a materialized crash image and
// returns the recovered store's sequence, digest, and the resulting file
// bytes (recovery may trim a torn WAL tail).
func recoverImage(t *testing.T, img map[string][]byte) (uint64, [32]byte, map[string][]byte) {
	t.Helper()
	fs := FromImage(img)
	s, info, err := disk.Open(disk.Options{FS: fs, Fsync: disk.FsyncAlways})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	seq := s.Stats().Seq
	if err := s.Close(); err != nil {
		t.Fatalf("close recovered store: %v", err)
	}
	return seq, info.Digest, fs.Image()
}

// sweepRun kills a recorded run just before each operation from op from on —
// and at every torn variant of every write — recovers, and checks the three
// invariants. It returns the crash points visited and how many were torn.
func sweepRun(t *testing.T, run *Run, from int, keepUnsynced bool) (points, torn int) {
	t.Helper()
	ops := run.FS.Ops()
	maxSeq := run.Commits[len(run.Commits)-1].Seq
	for k := from; k <= len(ops); k++ {
		cuts := []int{-1}
		if k < len(ops) {
			cuts = append(cuts, tornCuts(ops[k])...)
		}
		for _, cut := range cuts {
			img := run.FS.Materialize(k, cut, keepUnsynced)
			floor := durabilityFloor(run, k, keepUnsynced)
			seq, digest, after := recoverImage(t, img)
			points++
			if cut >= 0 {
				torn++
			}
			// Zero lost committed objects: everything durable survives.
			if seq < floor {
				t.Fatalf("crash at op %d cut %d: recovered seq %d below durable floor %d", k, cut, seq, floor)
			}
			if seq > maxSeq {
				t.Fatalf("crash at op %d cut %d: recovered seq %d beyond %d ever committed", k, cut, seq, maxSeq)
			}
			// Byte-identical committed state: the recovered digest is the
			// exact state after batch seq — no partial batch, and (because
			// digests capture the object set exactly) no resurrected
			// reclaim.
			if digest != run.Digests[seq] {
				t.Fatalf("crash at op %d cut %d: recovered digest of seq %d does not match the committed state", k, cut, seq)
			}
			// Deterministic: recovering the same image again reproduces
			// the same sequence, digest, and on-disk bytes.
			seq2, digest2, after2 := recoverImage(t, img)
			if seq2 != seq || digest2 != digest {
				t.Fatalf("crash at op %d cut %d: recovery not deterministic (%d vs %d)", k, cut, seq, seq2)
			}
			for name, data := range after {
				if !bytes.Equal(after2[name], data) {
					t.Fatalf("crash at op %d cut %d: recovery left different bytes in %s", k, cut, name)
				}
			}
		}
	}
	return points, torn
}

// sweepCommits is the length of TestCrashPointSweep's recorded runs.
const sweepCommits = 43

func sweep(t *testing.T, seed uint64, fsync disk.FsyncPolicy, keepUnsynced bool) {
	t.Helper()
	run, err := Record(seed, sweepCommits, fsync)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Commits) < 30 {
		t.Fatalf("workload too small: %d commits", len(run.Commits))
	}
	points, torn := sweepRun(t, run, 0, keepUnsynced)
	t.Logf("swept %d crash points (%d torn variants) over %d journal ops, %d commits", points, torn, len(run.FS.Ops()), len(run.Commits))
	// The four sweeps visit 355, 347, 318 and 321 points (at 41 commits a
	// checkpoint's one sync fewer left 332, 323, 295 and 304); a change to
	// how the backend writes must not quietly thin them out.
	if points < 300 {
		t.Errorf("swept only %d crash points, want at least 300", points)
	}

	// That run closes on a WAL with batches in it. One of 42 commits ends on
	// its sixth checkpoint, so its Close meets a stale WAL, cuts it and syncs
	// the cut: sweep from the last batch's write to the end of that journal.
	run, err = Record(seed, 42, fsync)
	if err != nil {
		t.Fatal(err)
	}
	is := func(op Op, file string, kind OpKind) bool { return op.File == file && op.Kind == kind }
	if ops := run.FS.Ops(); len(ops) < 3 || !is(ops[len(ops)-3], "heap.db", OpSync) ||
		!is(ops[len(ops)-2], "wal.log", OpTruncate) || !is(ops[len(ops)-1], "wal.log", OpSync) {
		t.Fatalf("a run closed straight after a checkpoint should end in the meta flip's sync, then the WAL's cut and its sync")
	}
	points, _ = sweepRun(t, run, run.Commits[len(run.Commits)-1].OpAfterWrite, keepUnsynced)
	t.Logf("swept %d crash points from the last commit through the checkpoint and the close after it", points)
}

// sweepCases are TestCrashPointSweep's four sweeps; TestReorderedPowerCut
// records the same runs.
var sweepCases = []struct {
	name         string
	fsync        disk.FsyncPolicy
	keepUnsynced bool
}{
	{"always/powercut", disk.FsyncAlways, false},
	{"always/sigkill", disk.FsyncAlways, true},
	{"group/powercut", disk.FsyncGroup, false},
	{"group/sigkill", disk.FsyncGroup, true},
}

// sweepSeed is the seed a sweep case records its run with.
func sweepSeed(name string) uint64 { return 0xC0FFEE + uint64(len(name)) }

// TestCrashPointSweep is the headline durability proof: for every recorded
// filesystem operation — and every torn variant of every write — kill the
// store there, recover, and check the three invariants: no durable batch
// lost, the recovered state byte-identical to a committed prefix, and
// recovery deterministic.
func TestCrashPointSweep(t *testing.T) {
	for _, tc := range sweepCases {
		t.Run(tc.name, func(t *testing.T) {
			sweep(t, sweepSeed(tc.name), tc.fsync, tc.keepUnsynced)
		})
	}
}

// TestTornImageRuns kills a checkpoint whose image goes out in runs of several
// pages (the sweep's workload is small enough that each of its runs is a single
// page): at every operation of the checkpoint, and inside each run at every
// page boundary — the first k pages of the run landed — and within every page.
// A checkpoint changes no logical state, so every one of those crashes, in
// either regime, must recover exactly the state that was being checkpointed.
func TestTornImageRuns(t *testing.T) {
	fs := NewJournalFS()
	s, _, err := disk.Open(disk.Options{FS: fs, Fsync: disk.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		if err != nil {
			t.Helper()
			t.Fatal(err)
		}
	}
	alloc := func(from, to objstore.OID) {
		for oid := from; oid < to; oid++ {
			must(s.LogAlloc(oid, objstore.ClassAtomicPart, 64, 4))
			if oid > 1 {
				must(s.LogSet(oid, 0, oid-1))
			}
			if oid%100 == 0 {
				must(s.Commit())
			}
		}
		must(s.Commit())
	}
	// About 163 of these objects fill a data page, so the image is some 37
	// pages: more than one 32-page window.
	alloc(1, 5900)
	must(s.Checkpoint())
	alloc(5900, 6000) // a WAL tail for the first image, absorbed by the second
	want := s.Digest()
	begin := len(fs.Ops())
	must(s.Checkpoint())
	ops := fs.Ops()
	must(s.Close())

	points, runs := 0, 0
	for k := begin; k <= len(ops); k++ {
		cuts := []int{-1}
		if k < len(ops) {
			cuts = append(cuts, tornCuts(ops[k])...)
			if ops[k].Kind == OpWrite && len(ops[k].Data) > disk.PageSize {
				runs++
			}
		}
		for _, cut := range cuts {
			for _, keepUnsynced := range []bool{false, true} {
				if _, digest, _ := recoverImage(t, fs.Materialize(k, cut, keepUnsynced)); digest != want {
					t.Fatalf("crash at op %d cut %d (unsynced data kept: %v): recovered a state other than the checkpointed one", k, cut, keepUnsynced)
				}
				points++
			}
		}
	}
	if runs < 2 {
		t.Fatalf("the image went out in %d multi-page runs, want a full window and the pages after it", runs)
	}
	t.Logf("swept %d crash points over the %d operations of a checkpoint, %d of them multi-page runs", points, len(ops)-begin, runs)
}

// pinnedDigest is the state the pinned heap.db and wal.log pairs in the disk
// package's testdata/ (image format 1) and testdata/v2/ (format 2) hold, as
// RecoveryInfo.Digest reports it: goldenCompactDigest there. Until the digest
// became a compact stream it read d19b4126bd0cb5d3369de505f241b1afee934dffb1d6c48305e1fbbf4c2b979b,
// goldenStateDigest, which TestGoldenBytes in the disk package still checks
// through the old word stream on the same pairs.
const pinnedDigest = "0e1c2df45acf74dbac9a40e02418a3a9ba2b5f02e0d0e929f0f71b010b0c421a"

// seeded returns a journaling filesystem holding files, each written and
// synced through the journal, so that Materialize rebuilds them at any later
// operation.
func seeded(t *testing.T, files map[string][]byte) *JournalFS {
	t.Helper()
	fs := NewJournalFS()
	for _, name := range []string{"heap.db", "wal.log"} {
		f, err := fs.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(files[name], 0); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

// crashCheckpoint kills the checkpoint whose operations are fs's journal from
// begin on at every operation and torn cut, in both crash regimes, and at its
// heap.db Sync with the reordered landings of the pages it wrote. Every crash
// must recover want. It returns the crash points and, per image format, how
// many recovered from an image of it.
func crashCheckpoint(t *testing.T, fs *JournalFS, begin int, want [32]byte) (points int, formats map[int]int) {
	t.Helper()
	formats = map[int]int{}
	check := func(img map[string][]byte, at string) {
		t.Helper()
		s, info, err := disk.Open(disk.Options{FS: FromImage(img), Fsync: disk.FsyncAlways})
		if err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		if info.Digest != want {
			t.Fatalf("%s: recovered %x from a format-%d image, want %x", at, info.Digest, info.Format, want)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		formats[info.Format]++
		points++
	}
	ops := fs.Ops()
	r := &rng{s: uint64(begin)}
	for k := begin; k <= len(ops); k++ {
		cuts := []int{-1}
		if k < len(ops) {
			cuts = append(cuts, tornCuts(ops[k])...)
		}
		for _, cut := range cuts {
			for _, keepUnsynced := range []bool{false, true} {
				check(fs.Materialize(k, cut, keepUnsynced), fmt.Sprintf("crash at op %d cut %d (unsynced data kept: %v)", k, cut, keepUnsynced))
			}
		}
		if k < len(ops) && ops[k].File == "heap.db" && ops[k].Kind == OpSync {
			pages := unsyncedPages(ops, k)
			for _, mask := range reorderings(pages, r) {
				check(landed(fs, k, pages, mask), fmt.Sprintf("power cut at op %d landing pages %v", k, mask))
			}
		}
	}
	return points, formats
}

// written is the image format a checkpoint writes.
const written = 4

// sweepMigration opens the pinned pair in the disk package's testdata/sub,
// written in image format from, and checkpoints it, which writes format 4 onto
// free pages, and kills that checkpoint everywhere crashCheckpoint does. Until
// the checkpoint's flush the old image is the committed one, after it the
// format-4 image: every crash must recover the same state from one or the
// other, and both must be seen.
func sweepMigration(t *testing.T, sub string, from int) {
	files := map[string][]byte{}
	for _, name := range []string{"heap.db", "wal.log"} {
		data, err := os.ReadFile(filepath.Join("..", "testdata", sub, name))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = data
	}
	fs := seeded(t, files)
	s, info, err := disk.Open(disk.Options{FS: fs, Fsync: disk.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(info.Digest[:]); info.Format != from || got != pinnedDigest {
		t.Fatalf("opened format %d with digest %s, want format %d with %s", info.Format, got, from, pinnedDigest)
	}
	begin := len(fs.Ops())
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ops := len(fs.Ops()) - begin
	points, formats := crashCheckpoint(t, fs, begin, info.Digest)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if formats[from] == 0 || formats[written] == 0 {
		t.Errorf("recoveries by image format: %v, want some from each of %d and %d", formats, from, written)
	}
	t.Logf("swept %d crash points over the %d operations of the migrating checkpoint; recovered from format %d %d times, format %d %d times", points, ops, from, formats[from], written, formats[written])
}

// TestFormat1ImageMigrates crashes the checkpoint that rewrites a format-1
// image (data pages plus a directory) as format 4.
func TestFormat1ImageMigrates(t *testing.T) { sweepMigration(t, "", 1) }

// TestFormat2ImageMigrates crashes the checkpoint that rewrites a format-2
// image (data pages, no sum) as format 4.
func TestFormat2ImageMigrates(t *testing.T) { sweepMigration(t, "v2", 2) }

// TestFormat3ImageMigrates crashes the checkpoint that rewrites a format-3
// image (data pages and their sum, no state chain) as format 4.
func TestFormat3ImageMigrates(t *testing.T) { sweepMigration(t, "v3", 3) }

// TestRecordIsDeterministic re-records the same seed and demands the same
// journal and digests — the property that makes sweep failures exactly
// reproducible.
func TestRecordIsDeterministic(t *testing.T) {
	a, err := Record(42, 20, disk.FsyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Record(42, 20, disk.FsyncGroup)
	if err != nil {
		t.Fatal(err)
	}
	if a.Final != b.Final || len(a.FS.Ops()) != len(b.FS.Ops()) {
		t.Fatalf("same seed diverged: %d vs %d ops", len(a.FS.Ops()), len(b.FS.Ops()))
	}
	for i, op := range a.FS.Ops() {
		bop := b.FS.Ops()[i]
		if op.File != bop.File || op.Kind != bop.Kind || op.Off != bop.Off || !bytes.Equal(op.Data, bop.Data) {
			t.Fatalf("op %d diverged", i)
		}
	}
	imgA, imgB := a.FS.Image(), b.FS.Image()
	for name, data := range imgA {
		if !bytes.Equal(imgB[name], data) {
			t.Fatalf("final %s bytes diverged", name)
		}
	}
}
