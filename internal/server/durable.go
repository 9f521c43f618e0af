package server

import (
	"fmt"

	"odbgc/internal/gc"
	"odbgc/internal/storage/disk"
)

// RebuildHeap populates an empty heap from the committed state a durable
// store recovered at open. The heap comes out as if every object had been
// created in OID order, every non-nil pointer slot then stored as an
// initializing store, and the persistent roots registered — remembered sets,
// placement and partition bookkeeping as they would have been built online —
// but it is loaded, not replayed (gc.Heap.Load). The heap must be freshly
// constructed, and the store attached with SetDurable only AFTER rebuilding:
// Load refuses a heap that would log what it is given back into the WAL.
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
