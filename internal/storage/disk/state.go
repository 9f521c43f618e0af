package disk

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"

	"odbgc/internal/objstore"
	"odbgc/internal/storage"
)

// MaxSlots is the largest slot count an object may have: a checkpoint stores
// each object as one record on one data page, and this is the widest record a
// page's payload holds. An object wider than this could be logged but never
// checkpointed, so it is refused wherever it could enter: the server's create
// op, LogAlloc, and WAL replay.
const MaxSlots = (pagePayload - objRecHdrLen) / 8

// checkShape refuses an object the on-disk format cannot hold: a record keeps
// the size in 32 bits, as the object header does (objstore.MaxSize), and more
// than MaxSlots slots do not fit a data page.
func checkShape(size, nslots int) error {
	if size < 0 || size > objstore.MaxSize {
		return fmt.Errorf("object size %d outside [0, %d]", size, uint32(objstore.MaxSize))
	}
	if nslots < 0 || nslots > MaxSlots {
		return fmt.Errorf("%d slots outside [0, %d]", nslots, MaxSlots)
	}
	return nil
}

// replay folds one committed WAL operation into objs. Recovery replays every
// record through it, and so does Commit while no heap runs on the store, so
// the two cannot drift. It refuses what no writer logs — a shape the format
// cannot hold, an OID MaxOIDGap or more past the horizon (the object store's
// bound, which keeps a damaged key from sizing the table), a nil, duplicate
// or absent OID, a slot out of range — and nothing else: a slot may name a
// reclaimed object, since the log records a reclaim without the stores that
// made the object unreachable.
func replay(objs *objstore.Store, op walOp) error {
	switch op.kind {
	case recAlloc:
		if err := checkShape(op.size, op.nslots); err != nil {
			return fmt.Errorf("alloc of %v: %w", op.oid, err)
		}
		_, err := objs.CreateWithOID(op.oid, op.class, op.size, op.nslots)
		return err
	case recSet:
		o := objs.Get(op.oid)
		if o == nil {
			return fmt.Errorf("set on absent %v", op.oid)
		}
		if op.slot < 0 || op.slot >= len(o.Slots) {
			return fmt.Errorf("slot %d out of range on %v", op.slot, op.oid)
		}
		o.Slots[op.slot] = op.dst
	case recRoot:
		if op.on {
			return objs.AddRoot(op.oid)
		}
		return objs.RemoveRoot(op.oid)
	case recReclaim:
		for _, oid := range op.oids {
			if err := objs.Remove(oid); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown op kind %d", op.kind)
	}
	return nil
}

// digest is SHA-256 of the state's canonical stream. Recovery is correct iff
// it is byte-identical before the crash and after the rebuild.
func digest(objs *objstore.Store) [sha256.Size]byte {
	h := sha256.New()
	writeDigestStream(h, objs)
	return [sha256.Size]byte(h.Sum(nil))
}

// writeDigestStream writes the state's canonical stream to w, a few kilobytes
// at a time: per object in ascending OID order, uvarint(OID − previous OID)
// (the first against 0), the class byte, uvarint(size), uvarint(2·len(slots) +
// root) and each slot as 8 bytes little-endian; then the OID horizon, 8 bytes
// little-endian. Records are self-delimiting and the horizon is a fixed-length
// tail, so the stream is one-to-one. A record's head is at most 31 bytes.
func writeDigestStream(w io.Writer, objs *objstore.Store) {
	buf := make([]byte, 0, 2*PageSize)
	prev := objstore.OID(0)
	objs.ForEach(func(o *objstore.Object) {
		if len(buf)+3*binary.MaxVarintLen64+1+8*len(o.Slots) > cap(buf) {
			_, _ = w.Write(buf) // a hash, or a test's buffer: neither fails
			buf = buf[:0]
		}
		packed := uint64(len(o.Slots)) << 1
		if o.Root {
			packed |= 1
		}
		buf = binary.AppendUvarint(buf, uint64(o.OID-prev))
		buf = append(buf, byte(o.Class))
		buf = binary.AppendUvarint(buf, uint64(o.Size))
		buf = binary.AppendUvarint(buf, packed)
		for _, s := range o.Slots {
			buf = le.AppendUint64(buf, uint64(s))
		}
		prev = o.OID
	})
	_, _ = w.Write(le.AppendUint64(buf, uint64(objs.NextOID())))
}

// ObjectState is one recovered object, handed to ForEach callbacks.
type ObjectState = storage.ObjectState

// Objects returns the object store holding the state: the one recovery
// filled, or the one a heap runs on once the store has adopted it. A heap is
// rebuilt on it with gc.Heap.Load.
func (s *Store) Objects() *objstore.Store { return s.objs }

// Adopt makes objs, the object store a heap runs on, the state this store
// checkpoints and digests; from now on the heap applies each mutation before
// logging it, and Commit only logs. objs is either the store recovery filled
// (RebuildHeap hands it to the heap) or, when both are empty, a store of the
// heap's own, whose horizon is raised to the recovered one. Any other store
// would hand out OIDs the log has used, or hold objects it never logged, so
// the store poisons itself instead. gc.Heap.SetDurable calls it.
func (s *Store) Adopt(objs *objstore.Store) {
	if objs != s.objs {
		if s.objs.Len() != 0 || objs.Len() != 0 {
			_ = s.poison(fmt.Errorf("disk: a heap holding %d objects attached to a store that recovered %d; rebuild the heap from the recovered store (server.RebuildHeap)", objs.Len(), s.objs.Len()))
			return
		}
		objs.AdvanceNextOID(s.objs.NextOID())
		s.objs = objs
	}
	s.adopted = true
}

// ForEach visits the objects in ascending OID order.
func (s *Store) ForEach(fn func(ObjectState)) {
	s.objs.ForEach(func(o *objstore.Object) {
		fn(ObjectState{OID: o.OID, Class: o.Class, Size: int(o.Size), Slots: o.Slots, Root: o.Root})
	})
}

// NextOID returns the OID horizon: the next OID a rebuilt store must hand
// out. It can exceed every live OID when the newest objects were reclaimed.
func (s *Store) NextOID() objstore.OID { return s.objs.NextOID() }

// NumObjects returns the number of objects in the state.
func (s *Store) NumObjects() int { return s.objs.Len() }

// Digest returns the canonical hash of the state. Between batches that is
// the committed state; with records staged, a heap running on the store has
// already applied them and they count.
func (s *Store) Digest() [sha256.Size]byte { return digest(s.objs) }

// WriteImage returns the heap.db that checkpointing objs into an empty
// database writes. With m, the storage manager running on objs, the image
// carries a state chain: m's state (storage.Manager.AppendState), then each
// record, a uint32 length and its bytes; its object records then also carry
// each object's oracle-dead flag. Without m it is the image Checkpoint writes.
// No program writes a state chain yet: it is the planned carrier of the
// controller and placement state a warm restart restores.
func WriteImage(objs *objstore.Store, m *storage.Manager, records ...[]byte) ([]byte, error) {
	// A store with no WAL: with no batch awaiting a sync, the checkpoint syncs
	// none, and it writes pages from 2 on, after the two meta slots.
	heap := &memFile{}
	s := &Store{heap: heap, objs: objs, adopted: true, walSynced: true, pageCount: 2,
		usedPages: make(map[uint32]bool), spareUsed: make(map[uint32]bool)}
	var state []byte
	if m != nil {
		state = m.AppendState(nil)
		for _, r := range records {
			state = append(le.AppendUint32(state, uint32(len(r))), r...)
		}
	}
	if err := s.checkpoint(state); err != nil {
		return nil, err
	}
	return heap.data, nil
}

// ReadImage loads a heap.db WriteImage wrote with a state chain, through the
// loader Open uses and every check it makes, and decodes the chain: the
// storage manager's state (storage.DecodeManager, which refuses what the
// image's checksums cannot see), then the records to its end. It returns the
// objects, with the placements the state gives them in their headers, the
// manager restored on them, and the records; the partitions' member lists
// are left to gc.Heap.Load. Open itself reads the state chain's pages and
// leaves them undecoded.
func ReadImage(img []byte) (*objstore.Store, *storage.Manager, [][]byte, error) {
	li, err := loadCheckpoint(&memFile{data: img})
	if err == nil && (li.refused != nil || li.m == nil || li.m.stateHead == 0) {
		err = cmp.Or(li.refusedErr, fmt.Errorf("disk: image carries no state chain"))
	}
	if err != nil {
		return nil, nil, nil, err
	}
	m, rest, err := storage.DecodeManager(li.state, li.objs)
	var records [][]byte
	for err == nil && len(rest) > 0 {
		if len(rest) < 4 || int(le.Uint32(rest)) > len(rest)-4 {
			err = fmt.Errorf("disk: state record %d overruns the state chain's %d bytes left", len(records), len(rest))
			break
		}
		n := 4 + int(le.Uint32(rest))
		records, rest = append(records, rest[4:n:n]), rest[n:]
	}
	if err != nil {
		return nil, nil, nil, err
	}
	return li.objs, m, records, nil
}
