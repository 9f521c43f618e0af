package disk

import (
	"crypto/sha256"
	"fmt"
	"math"

	"odbgc/internal/objstore"
	"odbgc/internal/storage"
)

// MaxSlots is the largest slot count an object may have: a checkpoint stores
// each object as one record on one data page, and this is the widest record a
// page's payload holds. An object wider than this could be logged but never
// checkpointed, so it is refused wherever it could enter: the server's create
// op, LogAlloc, and WAL replay.
const MaxSlots = (pagePayload - objRecHdrLen) / 8

// memObj is one object in the committed mirror. The table holds it by value,
// so a slotless object is its 16-byte entry and nothing else; only an object
// with slots owns an allocation. live tells a present object from the table's
// zero value, which means "absent".
type memObj struct {
	live  bool
	root  bool
	class objstore.Class
	size  uint32
	slots *[]objstore.OID // nil when the object has no slots
}

// slotList returns the object's slots; writes through it reach the mirror.
func (o memObj) slotList() []objstore.OID {
	if o.slots == nil {
		return nil
	}
	return *o.slots
}

// memState is the committed logical state: exactly what a crash-and-recover
// must reproduce. It advances only at Commit, so an uncommitted batch never
// leaks into a checkpoint. The objects sit in the same OID-indexed table the
// layers above keep theirs in: checkpoints, digests and heap rebuilds all walk
// it in ascending OID order, which for a table is simply its order.
type memState struct {
	objects objstore.Table[memObj]
	nextOID objstore.OID
}

func newMemState() *memState {
	return &memState{nextOID: 1}
}

// checkShape refuses an object the on-disk format cannot hold: a record keeps
// the size in 32 bits, and more than MaxSlots slots do not fit a data page.
func checkShape(size, nslots int) error {
	if size < 0 || uint64(size) > math.MaxUint32 {
		return fmt.Errorf("object size %d outside [0, %d]", size, uint32(math.MaxUint32))
	}
	if nslots < 0 || nslots > MaxSlots {
		return fmt.Errorf("%d slots outside [0, %d]", nslots, MaxSlots)
	}
	return nil
}

// insert enters a new object. A table's directory grows to reach any key it is
// given, so the key is bounded here, where keys from outside (a WAL record, a
// checkpoint directory entry) arrive: no further than objstore.MaxOIDGap past
// the horizon, the same bound the object store puts on a created OID.
func (m *memState) insert(oid objstore.OID, o memObj, slots []objstore.OID) error {
	switch {
	case oid.IsNil():
		return fmt.Errorf("alloc of nil OID")
	case oid >= m.nextOID && oid-m.nextOID >= objstore.MaxOIDGap:
		return fmt.Errorf("alloc of %v with next OID %v: %w", oid, m.nextOID, objstore.ErrOIDRange)
	case m.objects.Get(oid).live:
		return fmt.Errorf("alloc of existing %v", oid)
	}
	o.live = true
	if len(slots) > 0 {
		// Declared here so that only a slotted object pays for the box.
		//lint:allow hotpath the box lives as long as the object
		boxed := slots
		o.slots = &boxed
	}
	m.objects.Set(oid, o)
	if oid >= m.nextOID {
		m.nextOID = oid + 1
	}
	return nil
}

// apply folds one committed WAL operation into the mirror. Recovery replays
// through the same entry point as live commits, so the two cannot drift.
func (m *memState) apply(op walOp) error {
	switch op.kind {
	case recAlloc:
		if err := checkShape(op.size, op.nslots); err != nil {
			return fmt.Errorf("alloc of %v: %w", op.oid, err)
		}
		var slots []objstore.OID
		if op.nslots > 0 {
			//lint:allow hotpath slot array lives as long as the object
			slots = make([]objstore.OID, op.nslots)
		}
		return m.insert(op.oid, memObj{class: op.class, size: uint32(op.size)}, slots)
	case recSet:
		o := m.objects.Get(op.oid)
		if !o.live {
			return fmt.Errorf("set on absent %v", op.oid)
		}
		slots := o.slotList()
		if op.slot < 0 || op.slot >= len(slots) {
			return fmt.Errorf("slot %d out of range on %v", op.slot, op.oid)
		}
		slots[op.slot] = op.dst
	case recRoot:
		o := m.objects.Get(op.oid)
		if !o.live {
			return fmt.Errorf("root change on absent %v", op.oid)
		}
		o.root = op.on
		m.objects.Set(op.oid, o)
	case recReclaim:
		for _, oid := range op.oids {
			if !m.objects.Get(oid).live {
				return fmt.Errorf("reclaim of absent %v", oid)
			}
			m.objects.Set(oid, memObj{})
		}
	default:
		return fmt.Errorf("unknown op kind %d", op.kind)
	}
	return nil
}

// digest hashes the committed state canonically: objects in ascending OID
// order with class, size, root flag, and slots, then the OID horizon.
// Recovery is correct iff this value is byte-identical before the crash and
// after the rebuild.
func (m *memState) digest() [sha256.Size]byte {
	h := sha256.New()
	// The stream is eight-byte words, gathered and hashed a few kilobytes at
	// a time; the buffer holds the widest object with room to batch small ones.
	buf := make([]byte, 0, 2*PageSize)
	m.objects.ForEach(func(oid objstore.OID, o memObj) {
		slots := o.slotList()
		if len(buf)+8*(5+len(slots)) > cap(buf) {
			_, _ = h.Write(buf) // hash.Hash.Write never fails
			buf = buf[:0]
		}
		root := uint64(0)
		if o.root {
			root = 1
		}
		buf = le.AppendUint64(buf, uint64(oid))
		buf = le.AppendUint64(buf, uint64(o.class))
		buf = le.AppendUint64(buf, uint64(o.size))
		buf = le.AppendUint64(buf, root)
		buf = le.AppendUint64(buf, uint64(len(slots)))
		for _, s := range slots {
			buf = le.AppendUint64(buf, uint64(s))
		}
	})
	buf = le.AppendUint64(buf, uint64(m.nextOID))
	_, _ = h.Write(buf)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// ObjectState is one recovered object, handed to ForEach callbacks so the
// caller can rebuild a live heap.
type ObjectState = storage.ObjectState

// ForEach visits the committed objects in ascending OID order.
func (s *Store) ForEach(fn func(ObjectState)) {
	s.mem.objects.ForEach(func(oid objstore.OID, o memObj) {
		fn(ObjectState{OID: oid, Class: o.class, Size: int(o.size), Slots: o.slotList(), Root: o.root})
	})
}

// NextOID returns the committed OID horizon: the next OID a rebuilt store
// must hand out. It can exceed every live OID when the newest objects were
// reclaimed.
func (s *Store) NextOID() objstore.OID { return s.mem.nextOID }

// NumObjects returns the number of committed objects.
func (s *Store) NumObjects() int { return s.mem.objects.Len() }

// Digest returns the canonical hash of the committed state. Uncommitted
// staged records do not affect it.
func (s *Store) Digest() [sha256.Size]byte { return s.mem.digest() }
