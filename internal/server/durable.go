package server

import (
	"fmt"

	"odbgc/internal/gc"
	"odbgc/internal/objstore"
	"odbgc/internal/storage/disk"
)

// RebuildHeap populates an empty heap from the committed state a durable
// store recovered at open: every object is recreated, then every non-nil
// pointer slot is replayed as an initializing store (so remembered sets,
// placement, and partition bookkeeping rebuild exactly as they would have
// online), then the persistent roots are re-registered. The heap must be
// freshly constructed, and the store must be attached with SetDurable only
// AFTER rebuilding — replaying recovered mutations back into the WAL would
// double-log them.
func RebuildHeap(heap *gc.Heap, st *disk.Store) error {
	// Declare the committed OID horizon before recreating anything. It can
	// exceed every live OID when the newest objects were reclaimed, and
	// allocation must never rewind into a range the log has already seen;
	// and the survivors of a long run sit far apart, which the object store
	// accepts only below its declared horizon.
	heap.Store().AdvanceNextOID(st.NextOID())
	var err error
	st.ForEach(func(o disk.ObjectState) {
		if err != nil {
			return
		}
		if cerr := heap.Create(o.OID, o.Class, o.Size, len(o.Slots)); cerr != nil {
			err = fmt.Errorf("server: recreate recovered object %v: %w", o.OID, cerr)
		}
	})
	if err != nil {
		return err
	}
	// Second pass wires pointers and roots; every target already exists.
	st.ForEach(func(o disk.ObjectState) {
		if err != nil {
			return
		}
		for i, dst := range o.Slots {
			if dst.IsNil() {
				continue
			}
			if oerr := heap.Overwrite(o.OID, i, objstore.NilOID, dst, true); oerr != nil {
				err = fmt.Errorf("server: rewire recovered slot %v[%d]: %w", o.OID, i, oerr)
				return
			}
		}
		if o.Root {
			if rerr := heap.AddRoot(o.OID); rerr != nil {
				err = fmt.Errorf("server: re-root recovered object %v: %w", o.OID, rerr)
			}
		}
	})
	return err
}
