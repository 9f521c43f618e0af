package crashtest

import (
	"slices"
	"testing"

	"odbgc/internal/objstore"
	"odbgc/internal/storage/disk"
)

// page is one page of a heap.db write: where it lands and what it holds.
type page struct {
	off  int64
	data []byte
}

// unsyncedPages returns the heap.db pages written after the last heap.db Sync
// before op k, in journal order: a power cut just before op k may land any
// subset of them, in any order.
func unsyncedPages(ops []Op, k int) []page {
	var pages []page
	for _, op := range ops[:k] {
		switch {
		case op.File != "heap.db":
		case op.Kind == OpSync:
			pages = nil
		case op.Kind == OpWrite:
			for at := 0; at < len(op.Data); at += disk.PageSize {
				pages = append(pages, page{op.Off + int64(at), op.Data[at:min(at+disk.PageSize, len(op.Data))]})
			}
		}
	}
	return pages
}

// reorderings picks which of pages land in a reordered power cut. The meta
// page — the one written into a meta slot — always does: a cut that drops it
// is an ordinary power cut. Besides it: nothing; every other page but one, for
// each; and eight seeded random subsets.
func reorderings(pages []page, r *rng) [][]bool {
	var out [][]bool
	subset := func(in func(i int) bool) {
		mask := make([]bool, len(pages))
		for i, p := range pages {
			mask[i] = p.off < 2*disk.PageSize || in(i)
		}
		out = append(out, mask)
	}
	subset(func(int) bool { return false })
	for skip, p := range pages {
		if p.off >= 2*disk.PageSize {
			subset(func(i int) bool { return i != skip })
		}
	}
	for range 8 {
		subset(func(int) bool { return r.intn(2) == 0 })
	}
	return out
}

// landed returns the files a power cut just before op k leaves when the pages
// mask selects land on top of what the last syncs made durable.
func landed(fs *JournalFS, k int, pages []page, mask []bool) map[string][]byte {
	img := fs.Materialize(k, -1, false)
	for i, p := range pages {
		if mask[i] {
			img["heap.db"] = applyWrite(img["heap.db"], p.off, p.data)
		}
	}
	return img
}

// pointerRun records a store whose images span several pages and whose
// checkpoints take turns on the same pages: 600 objects of eight slots
// (seven to eight pages an image), checkpointed, then four rounds of
// pointer stores into every object, each round committed in batches and
// checkpointed. No round allocates, so every image holds the same records on
// the same pages, and a page that did not land still holds a CRC-valid page of
// the image two checkpoints back, with the same OIDs in the same order and
// other slots: only the sum tells the two apart.
func pointerRun(t *testing.T) *Run {
	t.Helper()
	fs := NewJournalFS()
	s, _, err := disk.Open(disk.Options{FS: fs, Fsync: disk.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	run := &Run{FS: fs, Digests: [][32]byte{s.Digest()}}
	commit := func() {
		before := len(fs.Ops())
		must(s.Commit())
		w := slices.IndexFunc(fs.Ops()[before:], func(op Op) bool { return op.File == "wal.log" && op.Kind == OpWrite })
		run.Commits = append(run.Commits, CommitMark{Seq: s.Stats().Seq, Digest: s.Digest(), OpAfterWrite: before + w + 1})
		run.Digests = append(run.Digests, s.Digest())
	}
	const n = 600
	for oid := objstore.OID(1); oid <= n; oid++ {
		must(s.LogAlloc(oid, objstore.ClassAtomicPart, 64, 8))
		must(s.LogRoot(oid, oid%10 == 1))
		if oid%100 == 0 {
			commit()
		}
	}
	must(s.Checkpoint())
	for round := 1; round <= 4; round++ {
		for oid := objstore.OID(1); oid <= n; oid++ {
			must(s.LogSet(oid, round%8, (oid*7+objstore.OID(round))%n+1))
			if oid%150 == 0 {
				commit()
			}
		}
		must(s.Checkpoint())
	}
	must(s.Close())
	run.Final = run.Digests[len(run.Digests)-1]
	return run
}

// TestReorderedPowerCut is the proof that a checkpoint needs one device flush.
// A power cut just before that flush may land any subset of the pages written
// since the last one, the meta page among them, in any order. For every
// checkpoint of TestCrashPointSweep's recorded runs and of pointerRun, it
// lands the meta alone, the meta with every image page but one, and random
// subsets. Each must recover the state of the last commit before the
// checkpoint: from the new image, or — when the sum refuses it — from the
// older one plus the WAL. Where the meta alone landed and the image was
// refused, the recovered store is checkpointed again and that checkpoint
// crashed everywhere crashCheckpoint crashes one: it must write over the
// refused slot, never the one serving.
func TestReorderedPowerCut(t *testing.T) {
	for _, tc := range sweepCases {
		t.Run(tc.name, func(t *testing.T) {
			run, err := Record(sweepSeed(tc.name), sweepCommits, tc.fsync)
			if err != nil {
				t.Fatal(err)
			}
			reorderRun(t, run, sweepSeed(tc.name))
		})
	}
	t.Run("pointer-stores", func(t *testing.T) { reorderRun(t, pointerRun(t), 1) })
}

// reorderRun lands the reorderings of every checkpoint of run, seeded with seed.
func reorderRun(t *testing.T, run *Run, seed uint64) {
	t.Helper()
	ops := run.FS.Ops()
	r := &rng{s: seed}
	points, checkpoints, fallbacks, after := 0, 0, 0, 0
	for k, op := range ops {
		if op.File != "heap.db" || op.Kind != OpSync {
			continue
		}
		checkpoints++
		// The checkpoint synced the WAL before its first page: every batch
		// committed so far is durable.
		var want uint64
		for _, c := range run.Commits {
			if c.OpAfterWrite <= k {
				want = c.Seq
			}
		}
		pages := unsyncedPages(ops, k)
		for i, mask := range reorderings(pages, r) {
			fs := seeded(t, landed(run.FS, k, pages, mask))
			s, info, err := disk.Open(disk.Options{FS: fs, Fsync: disk.FsyncAlways})
			if err != nil {
				t.Fatalf("power cut at op %d landing pages %v: %v", k, mask, err)
			}
			if seq := s.Stats().Seq; seq != want || info.Digest != run.Digests[want] {
				t.Fatalf("power cut at op %d landing pages %v: recovered seq %d (digest match %v), want seq %d", k, mask, seq, info.Digest == run.Digests[want], want)
			}
			points++
			if info.MetaFallback {
				fallbacks++
			}
			if i == 0 && info.MetaFallback {
				begin := len(fs.Ops())
				if err := s.Checkpoint(); err != nil {
					t.Fatalf("checkpoint after the fallback at op %d: %v", k, err)
				}
				n, _ := crashCheckpoint(t, fs, begin, info.Digest)
				after += n
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Logf("landed %d reorderings over %d checkpoints (%d recovered from the older image), then %d crash points in the checkpoints after a fallback", points, checkpoints, fallbacks, after)
	if fallbacks == 0 || after == 0 {
		t.Errorf("no reordering fell back to the older image, or none was checkpointed after: the regime tests nothing")
	}
}
