package storage

import "odbgc/internal/objstore"

// Backend is the durability contract the heap logs through: a write-ahead
// record stream of the logical mutations (allocation, pointer stores, root
// changes, and collector reclaims) grouped into atomic batches by Commit.
// The in-memory simulation runs with a nil backend; the disk backend
// (internal/storage/disk) implements Backend with a checksummed WAL and a
// paged checkpoint store, so that a crash at any instant loses no committed
// batch and never resurrects a committed reclaim.
//
// Log* calls stage records into the current batch; Commit makes the batch
// atomic and (depending on the backend's fsync policy) durable. Callers
// decide batch boundaries: the live server commits per request and per
// collection. Implementations must tolerate empty commits.
type Backend interface {
	// LogAlloc records the creation of an object with all slots nil.
	LogAlloc(oid objstore.OID, class objstore.Class, size, nslots int) error
	// LogSet records a pointer store: slot of src now references dst
	// (possibly NilOID).
	LogSet(src objstore.OID, slot int, dst objstore.OID) error
	// LogRoot records a persistent-root change for oid.
	LogRoot(oid objstore.OID, on bool) error
	// LogReclaim records the collector reclaiming oids: after the batch
	// commits, recovery must never resurrect them.
	LogReclaim(oids []objstore.OID) error
	// Commit seals the staged records into one atomic batch. After Commit
	// returns, a crash-and-recover either reflects the whole batch or none
	// of it (and with an always-fsync policy, always reflects it).
	Commit() error
	// Checkpoint persists the full committed state to the page store and
	// prunes the WAL, bounding recovery replay time.
	Checkpoint() error
	// Close flushes and releases the backend. Committed state must survive.
	Close() error
}

// ObjectState is one committed object as a backend reads it back
// (disk.Store.ForEach), for tools and tests that walk the recovered state.
type ObjectState struct {
	OID   objstore.OID
	Class objstore.Class
	Size  int
	Slots []objstore.OID // aliased, not copied; callers must not retain
	Root  bool
}
