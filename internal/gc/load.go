package gc

import (
	"fmt"

	"odbgc/internal/objstore"
	"odbgc/internal/storage"
)

// Load makes an empty heap run on st, a recovered database (disk.Store's
// Objects). The heap ends in exactly the state that creating every object in
// OID order, then storing every non-nil slot as an initializing overwrite,
// then registering the roots would leave — placement, buffer and I/O counts
// included — without going through the mutator and without copying an
// object: the storage manager places them in one forward pass, and a second
// pass over the objects that hold pointers refuses dangling targets, dirties
// their pages and counts the references that cross partitions.
//
// Nothing is logged, so a heap with a backend attached is refused: attach it
// after loading. An error leaves the heap partly filled and unusable.
func (h *Heap) Load(st *objstore.Store) error {
	if h.durable != nil {
		return fmt.Errorf("gc: load into a heap with a durability backend attached; attach it after loading")
	}
	if h.store.Len() != 0 || h.disk.NumPartitions() != 0 {
		return fmt.Errorf("gc: load into a heap that already holds %d objects in %d partitions", h.store.Len(), h.disk.NumPartitions())
	}
	h.store = st
	h.disk.UseStore(st)
	var err error
	st.ForEach(func(o *objstore.Object) {
		if err != nil {
			return
		}
		if err = h.disk.Place(o); err != nil {
			err = fmt.Errorf("gc: load %v: %w", o.OID, err)
		}
	})
	if err != nil {
		return err
	}
	st.ForEach(func(o *objstore.Object) {
		if err != nil || len(o.Slots) == 0 {
			return
		}
		srcPart, _ := storage.PartOf(o)
		holds := false
		for _, dst := range o.Slots {
			if dst.IsNil() {
				continue
			}
			dstPart, ok := h.disk.PartitionOf(dst)
			if !ok {
				err = fmt.Errorf("gc: load %v: slot target %v does not exist", o.OID, dst)
				return
			}
			holds = true
			if dstPart != srcPart {
				h.ext.Set(dst, h.ext.Get(dst)+1)
			}
		}
		if holds {
			err = h.disk.TouchObject(o, true)
		}
	})
	return err
}
