package gc

import (
	"encoding/binary"
	"fmt"

	"odbgc/internal/objstore"
	"odbgc/internal/storage"
)

// loaded marks, between Load's two passes, an object with slots Load placed.
const loaded uint8 = 4

// Load makes an empty heap run on st: a recovered database (disk.Store's
// Objects) or a checkpoint image's (disk.ReadImage), the heap then built on st
// over the storage manager restored with it. An object whose header carries a
// placement is adopted where it lies. Every other one is placed as creating
// them in OID order and then storing each non-nil slot as an initializing
// overwrite would — placement, buffer and I/O counts included — in one
// forward pass, and a second pass over the objects that hold pointers refuses
// dangling targets, dirties the pages of those it placed and counts the
// references that cross partitions. Oracle-dead objects enter the garbage
// ledger. Nothing is logged, so a heap with a backend attached is refused:
// attach it after loading. An error leaves the heap partly filled and
// unusable.
func (h *Heap) Load(st *objstore.Store) error {
	if h.durable != nil {
		return fmt.Errorf("gc: load into a heap with a durability backend attached; attach it after loading")
	}
	if h.store != st && (h.store.Len() != 0 || h.disk.NumPartitions() != 0) {
		return fmt.Errorf("gc: load into a heap that already holds %d objects in %d partitions", h.store.Len(), h.disk.NumPartitions())
	}
	h.store = st
	h.disk.UseStore(st)
	var err error
	st.ForEach(func(o *objstore.Object) {
		if err != nil {
			return
		}
		if o.PartPlus1 != 0 {
			err = h.disk.Adopt(o)
		} else if err = h.disk.Place(o); err == nil && len(o.Slots) > 0 {
			o.Mark = loaded
		}
		if err != nil {
			err = fmt.Errorf("gc: load %v: %w", o.OID, err)
		} else if o.Dead {
			p, _ := storage.PartOf(o)
			h.markDead(o, p)
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
		if o.Mark == loaded {
			if o.Mark = 0; holds {
				err = h.disk.TouchObject(o, true)
			}
		}
	})
	return err
}

var le = binary.LittleEndian

// AppendState appends the heap's counters to b as little-endian uint64s: each
// partition's overwrite count (po), then the overwrite clock and the totals of
// garbage created, bytes reclaimed and collections. The remembered sets and
// the oracle's garbage by partition are not in it: Load derives them from the
// graph and the headers' oracle-dead flags.
func (h *Heap) AppendState(b []byte) []byte {
	for p := range h.disk.NumPartitions() {
		b = le.AppendUint64(b, uint64(counter(h.po, storage.PartitionID(p))))
	}
	for _, v := range []uint64{h.totalOverwrites, h.totalGarbage, h.totalCollected, h.totalCollections} {
		b = le.AppendUint64(b, v)
	}
	return b
}

// DecodeState sets the counters AppendState wrote, on a heap Load filled with
// the same partitions.
func (h *Heap) DecodeState(b []byte) error {
	n := h.disk.NumPartitions()
	if len(b) != 8*(n+4) {
		return fmt.Errorf("gc: heap state of %d bytes, want %d for %d partitions", len(b), 8*(n+4), n)
	}
	h.po, h.poTotal = h.po[:0], 0
	for p := range n {
		h.po = append(h.po, int(le.Uint64(b[8*p:])))
		h.poTotal += h.po[p]
	}
	for i, v := range []*uint64{&h.totalOverwrites, &h.totalGarbage, &h.totalCollected, &h.totalCollections} {
		*v = le.Uint64(b[8*(n+i):])
	}
	return nil
}
