package disk

import (
	"crypto/sha256"
	"fmt"

	"odbgc/internal/objstore"
	"odbgc/internal/simerr"
	"odbgc/internal/storage"
)

// FsyncPolicy controls when the WAL is fsynced.
type FsyncPolicy int

const (
	// FsyncAlways syncs the WAL on every commit: a committed batch is
	// durable the moment Commit returns. The safest and slowest policy.
	FsyncAlways FsyncPolicy = iota
	// FsyncGroup syncs once per GroupEvery commits (and at checkpoints and
	// close): a crash can lose the last unsynced window of committed
	// batches but never tears one — recovery still lands on a commit
	// boundary.
	FsyncGroup
	// FsyncNever syncs only at checkpoints and close. For tests and
	// throwaway runs.
	FsyncNever
)

// ParseFsyncPolicy maps the -fsync flag values onto policies.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "group":
		return FsyncGroup, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("disk: unknown fsync policy %q (want always, group, or never)", s)
}

// String names the policy for flags and diagnostics.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncGroup:
		return "group"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("fsync(%d)", int(p))
}

// Options configures Open.
type Options struct {
	// FS is the filesystem to run on. Required; production passes
	// OSFS{Dir: dataDir}.
	FS FS
	// Fsync is the WAL durability policy. Default FsyncAlways.
	Fsync FsyncPolicy
	// GroupEvery is the group-commit window for FsyncGroup: sync after
	// this many commits. Default 8.
	GroupEvery int
}

// RecoveryInfo reports what Open had to do to reach a consistent state.
type RecoveryInfo struct {
	CheckpointSeq   uint64 // last batch absorbed by the checkpoint image
	CheckpointPages int    // pages read to load the image
	Format          int    // image format loaded: 0 none, 1 to 3 (rewritten by the next checkpoint), or 4
	BatchesReplayed int    // WAL batches applied beyond the checkpoint
	RecordsReplayed int    // records inside those batches
	WALBytes        int64  // WAL bytes scanned
	TornTail        bool   // the WAL ended in a damaged record
	TornAt          int64  // offset of the damage when TornTail
	MetaFallback    bool   // a meta page (taken for the newer) or the newer image was damaged; the other slot served
	Objects         int    // objects in the recovered state
	Digest          [sha256.Size]byte
}

// Store is the durable storage.Backend. Not safe for concurrent use; the
// owner (engine or simulator) serializes access, matching the repo's
// single-writer design.
type Store struct {
	fs   FS
	heap File
	wal  File

	fsync      FsyncPolicy
	groupEvery int

	// objs is the state: the object store recovery filled, or the one a heap
	// runs on once the store has adopted it (Adopt). While adopted is false,
	// Commit applies each batch to objs itself; once a heap runs on it, the
	// heap has applied the batch before logging it.
	objs    *objstore.Store
	adopted bool

	// Staging: records logged since the last commit. ops, reclaimBuf, and
	// encBuf are reused across commits so the hot append path allocates
	// nothing once warm.
	ops        []walOp
	reclaimBuf []objstore.OID
	encBuf     []byte

	seq         uint64 // last committed batch sequence
	ckptSeq     uint64 // last batch absorbed into the checkpoint image
	walTail     int64  // append offset in the WAL
	walSynced   bool   // no committed bytes await fsync
	walStale    bool   // a checkpoint absorbed every batch in the file; the next append cuts it first
	unsyncedN   int    // commits since the last WAL sync
	commits     uint64
	checkpoints uint64

	pageCount  uint32
	freePages  []uint32
	usedPages  map[uint32]bool // pages the committed image references
	spareUsed  map[uint32]bool // the previous image's, cleared to collect the next one's
	dirHead    uint32          // the committed image's first page (meta.dirHead)
	generation uint64

	// fatal, once set, permanently fails the store: an error left the WAL,
	// the object store, and the staged batch out of agreement, and any
	// further append could break the sequence discipline recovery depends on.
	fatal  error
	closed bool
}

// Compile-time check: *Store is a storage.Backend.
var _ storage.Backend = (*Store)(nil)

// Open opens (creating if absent) the database on opts.FS and runs
// recovery: load the newest valid checkpoint, replay the committed WAL
// tail, and truncate any torn tail. It returns the store positioned to
// accept new batches plus a report of what recovery did.
func Open(opts Options) (*Store, *RecoveryInfo, error) {
	if opts.FS == nil {
		return nil, nil, fmt.Errorf("disk: Options.FS is required")
	}
	if opts.GroupEvery <= 0 {
		opts.GroupEvery = 8
	}
	s := &Store{
		fs:         opts.FS,
		fsync:      opts.Fsync,
		groupEvery: opts.GroupEvery,
		walSynced:  true,
		pageCount:  2, // meta slots always exist
		spareUsed:  make(map[uint32]bool),
	}
	info, err := s.recover()
	if err != nil {
		// Best effort: release the handles recover may have opened.
		if s.heap != nil {
			_ = s.heap.Close()
		}
		if s.wal != nil {
			_ = s.wal.Close()
		}
		return nil, nil, err
	}
	return s, info, nil
}

// recover loads the checkpoint, replays the WAL, and trims the torn tail.
func (s *Store) recover() (*RecoveryInfo, error) {
	var err error
	if s.heap, err = s.fs.Open(heapFile); err != nil {
		return nil, err
	}
	if s.wal, err = s.fs.Open(walFile); err != nil {
		return nil, err
	}

	img, err := loadCheckpoint(s.heap)
	if err != nil {
		return nil, err
	}
	s.objs, s.usedPages = img.objs, img.used
	format := 0
	if m := img.m; m != nil {
		format = int(m.format)
		s.ckptSeq = m.seq
		s.seq = m.seq
		s.generation = m.generation
		s.dirHead = m.dirHead
		s.pageCount = max(m.pageCount, 2)
	}
	s.rebuildFreeList(img.used)

	walSize, err := s.wal.Size()
	if err != nil {
		return nil, fmt.Errorf("disk: wal size: %w", err)
	}
	data := make([]byte, walSize)
	if err := readFull(s.wal, data, 0); err != nil {
		return nil, simerr.WrapRecoveryFailed("read wal", err)
	}
	scan, err := scanWAL(data, s.ckptSeq, s.objs)
	if err != nil {
		return nil, err
	}
	if r := img.refused; r != nil && scan.lastSeq < r.seq {
		// The older image stands in for the refused one only with every batch
		// between them still in the WAL; once a commit has cut it, they are
		// gone with the newer image.
		return nil, simerr.WrapRecoveryFailed(fmt.Sprintf("checkpoint image of seq %d refused, and the WAL reaches only seq %d from the older image's seq %d", r.seq, scan.lastSeq, s.ckptSeq), img.refusedErr)
	}
	s.seq = scan.lastSeq
	s.walTail = scan.tail
	if scan.tail != walSize {
		// A tear reads the same twice; a read fault may garble acknowledged batches.
		again := make([]byte, walSize-scan.tail)
		if err := readFull(s.wal, again, scan.tail); err != nil || string(again) != string(data[scan.tail:]) {
			return nil, simerr.WrapRecoveryFailed(fmt.Sprintf("wal past offset %d does not read the same twice", scan.tail), err)
		}
		// Drop the torn or uncommitted tail so new batches append onto a
		// clean boundary and a re-scan of the file is byte-stable.
		if err := s.wal.Truncate(scan.tail); err != nil {
			return nil, fmt.Errorf("disk: truncate wal tail: %w", err)
		}
		if err := s.wal.Sync(); err != nil {
			return nil, fmt.Errorf("disk: sync truncated wal: %w", err)
		}
	}
	if scan.batches == 0 && scan.tail > 0 {
		// Every batch in the file is one the checkpoint absorbed (a kill
		// between a checkpoint and the next commit): the WAL is as stale as
		// Checkpoint leaves it, so the next restart does not scan it again.
		s.walTail = 0
		s.walStale = true
	}

	info := &RecoveryInfo{
		CheckpointSeq:   s.ckptSeq,
		CheckpointPages: img.pagesRead,
		Format:          format,
		BatchesReplayed: scan.batches,
		RecordsReplayed: scan.records,
		WALBytes:        walSize,
		TornTail:        scan.torn,
		TornAt:          scan.tornAt,
		MetaFallback:    img.fallback,
		Objects:         s.objs.Len(),
		Digest:          digest(s.objs),
	}
	return info, nil
}

// poison marks the store permanently failed and returns err. Commit,
// Checkpoint, and the Log* methods all refuse a poisoned store, so a
// caller that keeps retrying fails loudly instead of quietly corrupting
// the WAL sequence discipline.
func (s *Store) poison(err error) error {
	if s.fatal == nil {
		s.fatal = err
	}
	return err
}

// failed reports the poisoned-store condition as an error, nil when healthy.
func (s *Store) failed() error {
	if s.fatal == nil {
		return nil
	}
	return fmt.Errorf("disk: store poisoned by earlier failure: %w", s.fatal)
}

// stage adds one record to the pending batch.
func (s *Store) stage(op walOp) error {
	if s.closed {
		return fmt.Errorf("disk: store is closed")
	}
	if err := s.failed(); err != nil {
		return err
	}
	s.ops = append(s.ops, op)
	return nil
}

// LogAlloc implements storage.Backend. An object the format cannot hold (more
// than MaxSlots slots, a size beyond 32 bits) is refused here, before anything
// is staged: once committed it could never be checkpointed.
func (s *Store) LogAlloc(oid objstore.OID, class objstore.Class, size, nslots int) error {
	if oid.IsNil() {
		return fmt.Errorf("disk: alloc of nil OID")
	}
	if err := checkShape(size, nslots); err != nil {
		return fmt.Errorf("disk: alloc of %v: %w", oid, err)
	}
	return s.stage(walOp{kind: recAlloc, oid: oid, class: class, size: size, nslots: nslots})
}

// LogSet implements storage.Backend.
func (s *Store) LogSet(src objstore.OID, slot int, dst objstore.OID) error {
	return s.stage(walOp{kind: recSet, oid: src, slot: slot, dst: dst})
}

// LogRoot implements storage.Backend.
func (s *Store) LogRoot(oid objstore.OID, on bool) error {
	return s.stage(walOp{kind: recRoot, oid: oid, on: on})
}

// LogReclaim implements storage.Backend. The OIDs are copied into the
// staging buffer; the caller keeps ownership of its slice.
func (s *Store) LogReclaim(oids []objstore.OID) error {
	if len(oids) == 0 {
		return nil
	}
	start := len(s.reclaimBuf)
	s.reclaimBuf = append(s.reclaimBuf, oids...)
	return s.stage(walOp{kind: recReclaim, oids: s.reclaimBuf[start:len(s.reclaimBuf):len(s.reclaimBuf)]})
}

// Commit seals the staged records into one batch: encode, append with a
// single write, fsync per policy, then — while no heap runs on the store —
// apply it to the object store. An empty batch is a no-op (no WAL bytes, no
// sequence number).
func (s *Store) Commit() error {
	if s.closed {
		return fmt.Errorf("disk: store is closed")
	}
	if err := s.failed(); err != nil {
		return err
	}
	if len(s.ops) == 0 {
		return nil
	}
	seq := s.seq + 1
	buf := s.encBuf[:0]
	for _, op := range s.ops {
		buf = appendRecord(buf, op, 0)
	}
	buf = appendRecord(buf, walOp{kind: recCommit}, seq)
	s.encBuf = buf
	if err := s.cutStaleWAL(); err != nil {
		return err
	}
	// A failed or torn append is retryable as-is: walTail has not moved, so
	// the retry overwrites the partial bytes, and a crash before then leaves
	// a torn tail recovery already rolls back.
	if _, err := s.wal.WriteAt(buf, s.walTail); err != nil {
		return fmt.Errorf("disk: append wal batch %d: %w", seq, err)
	}
	prevTail, prevSynced, prevUnsynced := s.walTail, s.walSynced, s.unsyncedN
	s.walTail += int64(len(buf))
	s.walSynced = false
	s.unsyncedN++
	if s.fsync == FsyncAlways || (s.fsync == FsyncGroup && s.unsyncedN >= s.groupEvery) {
		if err := s.syncWAL(); err != nil {
			// The batch bytes are fully written but not durable, and the
			// staged ops stay staged for a retry. Rewind the append so the
			// retry cannot lay down a second copy of seq — two batches with
			// one sequence number would make the store unrecoverable. If the
			// rewind itself fails, the duplicate is unavoidable on retry, so
			// the store is done.
			if terr := s.wal.Truncate(prevTail); terr != nil {
				return s.poison(fmt.Errorf("disk: rewind wal after failed sync of batch %d: %w (sync: %w)", seq, terr, err))
			}
			s.walTail, s.walSynced, s.unsyncedN = prevTail, prevSynced, prevUnsynced
			return err
		}
	}
	// The write is down; the batch is committed. A heap running on the store
	// has applied it already; otherwise apply it here. A replay failure means
	// the caller logged an inconsistent batch (e.g. a set on an object it
	// never allocated); the WAL already holds the batch, the object store may
	// be half-applied, and recovery would hit the same wall — the store
	// cannot continue.
	if !s.adopted {
		for _, op := range s.ops {
			if err := replay(s.objs, op); err != nil {
				return s.poison(fmt.Errorf("disk: batch %d is inconsistent: %w", seq, err))
			}
		}
	}
	s.seq = seq
	s.commits++
	s.ops = s.ops[:0]
	s.reclaimBuf = s.reclaimBuf[:0]
	return nil
}

// cutStaleWAL empties a WAL whose every batch the last checkpoint absorbed.
// Checkpoint leaves that to the first append after it, whose Sync then covers
// the truncate and the new batch at once; until that Sync the synced file is
// still the stale one, which replay skips by sequence, so a crash on either
// side of it recovers the checkpointed state plus whatever batches landed.
func (s *Store) cutStaleWAL() error {
	if !s.walStale {
		return nil
	}
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("disk: truncate wal: %w", err)
	}
	s.walStale = false
	s.walSynced = false
	return nil
}

// syncWAL fsyncs the WAL if committed bytes await it.
func (s *Store) syncWAL() error {
	if s.walSynced {
		return nil
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("disk: sync wal: %w", err)
	}
	s.walSynced = true
	s.unsyncedN = 0
	return nil
}

func (s *Store) syncHeap() error {
	if err := s.heap.Sync(); err != nil {
		return fmt.Errorf("disk: sync heap: %w", err)
	}
	return nil
}

// Checkpoint writes the committed state as a fresh copy-on-write page
// image, flips the meta page to it, and flushes both at once: one device
// flush. The sequence is crash-safe at every step: the WAL is synced before
// the first page is written (writeCheckpoint), and the flip is a single
// checksummed page write that carries the sum of the image's pages. A power
// cut may land the flip without some of the pages; the sum then refuses the
// image, and recovery loads the older slot's, which the new pages never
// overwrite, and replays the WAL, which still holds every batch since it.
// Once the flush is done every batch in the WAL is at or below the image's
// sequence, which replay skips, so the file is only marked stale here; the
// next Commit (or Close) cuts it in front of a Sync it performs anyway. The
// image carries no state chain.
func (s *Store) Checkpoint() error { return s.checkpoint(nil) }

// checkpoint is Checkpoint writing state, when not empty, as the image's
// state chain.
func (s *Store) checkpoint(state []byte) error {
	if s.closed {
		return fmt.Errorf("disk: store is closed")
	}
	if err := s.failed(); err != nil {
		return err
	}
	if len(s.ops) != 0 {
		return fmt.Errorf("disk: checkpoint with %d uncommitted staged records", len(s.ops))
	}
	// Until the meta flip lands, the previous image stays the committed one,
	// so a failed attempt must be rolled back: the generation counter rewinds
	// so the retry — which serializes a fresh image — targets the same meta
	// slot, never the live one. Before the meta write nothing can reference
	// the image's pages and they return to the free list; once the meta write
	// has been attempted, a valid meta naming them may be on disk with unknown
	// durability, so they are counted as used — leaked until a successful flip
	// supersedes the slot, or until the next open recomputes the free list
	// from the committed image.
	prevPages, prevGen := s.pageCount, s.generation
	abort := func(metaMayExist bool) {
		if metaMayExist {
			for no := range s.spareUsed {
				s.usedPages[no] = true
			}
		} else {
			s.pageCount = prevPages
		}
		s.generation = prevGen
		s.rebuildFreeList(s.usedPages)
	}
	w := windows.Get().(*pageWindow)
	defer windows.Put(w)
	head, stateHead, sum, err := s.writeCheckpoint(w, state)
	if err != nil {
		abort(false)
		return err
	}
	s.generation++
	m := meta{
		generation: s.generation,
		seq:        s.seq,
		nextOID:    uint64(s.objs.NextOID()),
		pageCount:  s.pageCount,
		dirHead:    head,
		objects:    uint64(s.objs.Len()),
		sum:        sum,
		stateHead:  stateHead,
	}
	slot := uint32(s.generation % 2)
	// The data pages are out, so the window's first page carries the meta.
	if _, err := s.heap.WriteAt(encodeMeta(w.buf, m), int64(slot)*PageSize); err != nil {
		abort(true)
		return fmt.Errorf("disk: write meta slot %d: %w", slot, err)
	}
	if err := s.syncHeap(); err != nil {
		abort(true)
		return err
	}
	// The flip is durable: the new image is the committed one. Everything
	// the WAL holds is absorbed (and was synced before the image was written).
	s.ckptSeq = s.seq
	s.usedPages, s.spareUsed = s.spareUsed, s.usedPages
	s.rebuildFreeList(s.usedPages)
	s.dirHead = head
	s.checkpoints++
	s.walTail = 0
	s.walStale = true
	return nil
}

// Close cuts a WAL the last checkpoint left stale, syncs outstanding
// committed batches (or that cut) and releases the files and the object
// store: a closed store reads as empty, and keeps alive no graph that no heap
// runs on. The staged (uncommitted) records, if any, are discarded — exactly
// what a crash would do to them. A poisoned store releases without cutting or
// syncing: its WAL bookkeeping no longer matches the bytes on disk, so
// syncing could make an inconsistent tail durable.
func (s *Store) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.objs = objstore.NewStore()
	err := s.failed()
	if err == nil {
		err = s.cutStaleWAL()
	}
	if err == nil {
		err = s.syncWAL()
	}
	if cerr := s.wal.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("disk: close wal: %w", cerr)
	}
	if cerr := s.heap.Close(); cerr != nil && err == nil {
		err = fmt.Errorf("disk: close heap: %w", cerr)
	}
	return err
}

// Stats reports backend counters for metrics surfaces.
type Stats struct {
	Commits     uint64
	Checkpoints uint64
	Seq         uint64
	WALTail     int64
	PageCount   uint32
	FreePages   int
	Objects     int
}

// Stats returns a snapshot of the backend counters.
func (s *Store) Stats() Stats {
	return Stats{
		Commits:     s.commits,
		Checkpoints: s.checkpoints,
		Seq:         s.seq,
		WALTail:     s.walTail,
		PageCount:   s.pageCount,
		FreePages:   len(s.freePages),
		Objects:     s.objs.Len(),
	}
}
