package gc

import (
	"fmt"

	"odbgc/internal/objstore"
	"odbgc/internal/storage"
)

// Load fills an empty heap with a recovered database. each must call its
// argument once per object, in strictly ascending OID order (the order a
// backend's committed state is kept in); the caller declares the OID horizon
// with Store().AdvanceNextOID first. The heap ends in exactly the state that
// creating every object in that order, then storing every non-nil slot as an
// initializing overwrite, then registering the roots would leave — placement,
// buffer and I/O counts included — without going through the mutator: the
// object store takes each object whole, the storage manager places them in one
// forward pass, and a second pass over the objects that hold pointers refuses
// dangling targets, dirties their pages and counts the references that cross
// partitions.
//
// Nothing is logged, so a heap with a backend attached is refused: attach it
// after loading. An error leaves the heap partly filled and unusable.
func (h *Heap) Load(each func(func(storage.ObjectState))) error {
	if h.durable != nil {
		return fmt.Errorf("gc: load into a heap with a durability backend attached; attach it after loading")
	}
	if h.store.Len() != 0 {
		return fmt.Errorf("gc: load into a heap that already holds %d objects", h.store.Len())
	}
	ld, err := h.disk.NewLoader()
	if err != nil {
		return err
	}
	var last objstore.OID
	each(func(o storage.ObjectState) {
		switch {
		case err != nil:
			return
		case !o.OID.IsNil() && o.OID <= last:
			err = fmt.Errorf("gc: load of %v after %v: OIDs must ascend", o.OID, last)
			return
		}
		last = o.OID
		if err = h.store.Load(o.OID, o.Class, o.Size, o.Slots, o.Root); err == nil {
			err = ld.Place(o.OID, o.Size)
		}
		if err != nil {
			err = fmt.Errorf("gc: load %v: %w", o.OID, err)
		}
	})
	if err != nil {
		return err
	}
	h.store.ForEach(func(o *objstore.Object) {
		if err != nil || len(o.Slots) == 0 {
			return
		}
		srcPart, _ := h.disk.PartitionOf(o.OID)
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
			err = ld.Dirty(o.OID)
		}
	})
	return err
}
