package server

import (
	"fmt"

	"odbgc/internal/gc"
	"odbgc/internal/storage/disk"
)

// RebuildHeap makes an empty heap run on the object store a durable store
// recovered at open (gc.Heap.Load), and the durable store keep that one store
// as its state from then on (disk.Store.Adopt). The heap comes out as if every
// object had been created in OID order, every non-nil pointer slot then stored
// as an initializing store, and the persistent roots registered — remembered
// sets, placement and partition bookkeeping as they would have been built
// online — but nothing is copied or replayed, and the OID horizon is the
// store's own. The heap must be freshly constructed, and logging attached
// only after rebuilding (NewEngine does it): Load refuses a heap that would
// log what it is given back into the WAL.
func RebuildHeap(heap *gc.Heap, st *disk.Store) error {
	if err := heap.Load(st.Objects()); err != nil {
		return fmt.Errorf("server: rebuild heap from recovered state: %w", err)
	}
	st.Adopt(heap.Store())
	return nil
}
