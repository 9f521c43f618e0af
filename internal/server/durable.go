package server

import (
	"fmt"

	"odbgc/internal/gc"
	"odbgc/internal/objstore"
	"odbgc/internal/storage"
	"odbgc/internal/storage/disk"
)

// stagedBackend is EngineConfig.Durable as the engine hands it to the heap:
// it counts the records the heap has staged since the last counted commit,
// which is how the engine tells a commit that sealed a batch from one that
// found nothing to seal. Engine goroutine only.
type stagedBackend struct {
	storage.Backend
	staged int
}

func (b *stagedBackend) note(err error) error {
	if err == nil {
		b.staged++
	}
	return err
}

func (b *stagedBackend) LogAlloc(oid objstore.OID, class objstore.Class, size, nslots int) error {
	return b.note(b.Backend.LogAlloc(oid, class, size, nslots))
}

func (b *stagedBackend) LogSet(src objstore.OID, slot int, dst objstore.OID) error {
	return b.note(b.Backend.LogSet(src, slot, dst))
}

func (b *stagedBackend) LogRoot(oid objstore.OID, on bool) error {
	return b.note(b.Backend.LogRoot(oid, on))
}

func (b *stagedBackend) LogReclaim(oids []objstore.OID) error {
	return b.note(b.Backend.LogReclaim(oids))
}

// RebuildHeap populates an empty heap from the committed state a durable
// store recovered at open. The heap comes out as if every object had been
// created in OID order, every non-nil pointer slot then stored as an
// initializing store, and the persistent roots registered — remembered sets,
// placement and partition bookkeeping as they would have been built online —
// but it is loaded, not replayed (gc.Heap.Load). The heap must be freshly
// constructed, and the store attached only AFTER rebuilding (NewEngine does
// it): Load refuses a heap that would log what it is given back into the WAL.
func RebuildHeap(heap *gc.Heap, st *disk.Store) error {
	// Declare the committed OID horizon before loading anything. It can
	// exceed every live OID when the newest objects were reclaimed, and
	// allocation must never rewind into a range the log has already seen;
	// and the survivors of a long run sit far apart, which the object store
	// accepts only below its declared horizon.
	heap.Store().AdvanceNextOID(st.NextOID())
	if err := heap.Load(st.ForEach); err != nil {
		return fmt.Errorf("server: rebuild heap from recovered state: %w", err)
	}
	return nil
}
