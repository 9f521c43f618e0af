package crashtest

import (
	"crypto/sha256"
	"fmt"
	"slices"

	"odbgc/internal/objstore"
	"odbgc/internal/storage/disk"
)

// rng is a splitmix64 generator: tiny, seeded, deterministic — the same
// construction the fault injector uses.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// CommitMark records one committed batch during the recording run: its
// sequence, the digest of the committed state after it, and the journal
// position just past the batch's WAL write — the point at which the batch
// is on disk (though not necessarily synced).
type CommitMark struct {
	Seq          uint64
	Digest       [sha256.Size]byte
	OpAfterWrite int
}

// Run is a recorded workload: the journal it produced and the committed
// states it passed through. Digests[0] is the empty state; Digests[i] is
// the state after batch i.
type Run struct {
	FS      *JournalFS
	Commits []CommitMark
	Digests [][sha256.Size]byte
	Final   [sha256.Size]byte
}

// Record drives a seeded workload — allocations, pointer stores, root
// flips, reclaims, commits, periodic checkpoints — against a fresh disk
// backend on a journaling filesystem and records every committed state.
// The workload exercises every WAL record type and several checkpoint
// cycles so a crash-point sweep covers each on-disk transition.
func Record(seed uint64, commits int, fsync disk.FsyncPolicy) (*Run, error) {
	fs := NewJournalFS()
	s, _, err := disk.Open(disk.Options{FS: fs, Fsync: fsync, GroupEvery: 4})
	if err != nil {
		return nil, fmt.Errorf("crashtest: open: %w", err)
	}
	r := &rng{s: seed}
	run := &Run{FS: fs, Digests: [][sha256.Size]byte{s.Digest()}}

	type liveObj struct {
		oid    objstore.OID
		nslots int
	}
	var live []liveObj
	next := objstore.OID(1)
	for c := 0; c < commits; c++ {
		nops := 1 + r.intn(3)
		for i := 0; i < nops; i++ {
			switch k := r.intn(10); {
			case k < 4 || len(live) == 0: // alloc
				nslots := 1 + r.intn(3)
				if r.intn(5) == 0 {
					nslots = 0
				}
				if err := s.LogAlloc(next, objstore.Class(1+r.intn(6)), 16+r.intn(240), nslots); err != nil {
					return nil, err
				}
				live = append(live, liveObj{oid: next, nslots: nslots})
				next++
			case k < 7: // pointer store into a slotted object
				src := live[r.intn(len(live))]
				if src.nslots == 0 {
					continue
				}
				dst := objstore.NilOID
				if r.intn(4) > 0 {
					dst = live[r.intn(len(live))].oid
				}
				if err := s.LogSet(src.oid, r.intn(src.nslots), dst); err != nil {
					return nil, err
				}
			case k < 9: // root flip
				if err := s.LogRoot(live[r.intn(len(live))].oid, r.intn(2) == 0); err != nil {
					return nil, err
				}
			default: // reclaim one object
				vi := r.intn(len(live))
				if err := s.LogReclaim([]objstore.OID{live[vi].oid}); err != nil {
					return nil, err
				}
				live = slices.Delete(live, vi, vi+1)
			}
		}
		opsBefore := len(fs.Ops())
		prevSeq := s.Stats().Seq
		if err := s.Commit(); err != nil {
			return nil, fmt.Errorf("crashtest: commit %d: %w", c, err)
		}
		if st := s.Stats(); st.Seq != prevSeq {
			// The batch's WAL write is the one write Commit journals: the
			// first operation of most commits, the second of the commit
			// after a checkpoint, which cuts the stale WAL first.
			w := slices.IndexFunc(fs.Ops()[opsBefore:], func(op Op) bool { return op.Kind == OpWrite })
			if w < 0 {
				return nil, fmt.Errorf("crashtest: commit %d journaled no write", c)
			}
			run.Commits = append(run.Commits, CommitMark{
				Seq:          st.Seq,
				Digest:       s.Digest(),
				OpAfterWrite: opsBefore + w + 1,
			})
			run.Digests = append(run.Digests, s.Digest())
		}
		if (c+1)%7 == 0 {
			if err := s.Checkpoint(); err != nil {
				return nil, fmt.Errorf("crashtest: checkpoint after commit %d: %w", c, err)
			}
		}
	}
	run.Final = s.Digest()
	if err := s.Close(); err != nil {
		return nil, fmt.Errorf("crashtest: close: %w", err)
	}
	return run, nil
}
