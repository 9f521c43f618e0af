// Package objstore implements the logical object model used throughout the
// simulator: objects identified by OIDs, carrying a class, a byte size, and a
// fixed set of pointer slots to other objects.
//
// The object store is purely logical: it knows nothing about pages,
// partitions, or I/O. The physical placement of objects is the job of
// package storage; reachability-based reclamation is the job of package gc.
// Keeping the layers separate mirrors the structure of the simulation system
// described in Cook, Wolf, Zorn (CU-CS-647-93) that the paper builds on. The
// exceptions are header fields other layers write, kept beside the object
// instead of in a second OID table: where package storage placed it, and the
// collector's mark and oracle-dead flag, which package gc keeps.
package objstore

import (
	"errors"
	"fmt"
)

// OID identifies an object for its entire lifetime. OIDs are never reused.
// The zero OID is reserved and means "no object" (a nil pointer slot).
type OID uint64

// NilOID is the distinguished null object identifier.
const NilOID OID = 0

// IsNil reports whether the OID is the distinguished null identifier.
func (o OID) IsNil() bool { return o == NilOID }

// String formats the OID for diagnostics.
func (o OID) String() string {
	if o == NilOID {
		return "nil"
	}
	return fmt.Sprintf("oid:%d", uint64(o))
}

// Class tags an object with its schema type. Classes matter only for
// diagnostics and for workload generators that assign per-class sizes.
type Class uint8

// Classes used by the OO7 workload. User workloads may define their own
// values; the object store treats Class as opaque.
const (
	ClassUnknown Class = iota
	ClassModule
	ClassAssembly
	ClassCompositePart
	ClassAtomicPart
	ClassConnection
	ClassDocument
	ClassManual
)

var classNames = map[Class]string{
	ClassUnknown:       "unknown",
	ClassModule:        "module",
	ClassAssembly:      "assembly",
	ClassCompositePart: "composite",
	ClassAtomicPart:    "atomic",
	ClassConnection:    "connection",
	ClassDocument:      "document",
	ClassManual:        "manual",
}

// String returns a human-readable class name.
func (c Class) String() string {
	if n, ok := classNames[c]; ok {
		return n
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// Object is a logical database object: a size in bytes and pointer slots.
// The slot array has fixed length per object; a slot holds NilOID when empty.
// Mark, Root, Dead, PartPlus1 and Offset fill what would be padding in the 48
// bytes: the collector's mark, which package gc sets during a collection or a
// check and clears before it returns; the root flag, which the Store's root
// methods keep; the oracle's dead flag, which only package gc writes; and the
// object's partition plus one (zero while unplaced) and its byte offset there,
// which only package storage uses.
type Object struct {
	OID       OID
	Class     Class
	Mark      uint8
	Root      bool
	Dead      bool
	Size      uint32 // total size in bytes, including pointer slots
	PartPlus1 int32
	Offset    int32
	Slots     []OID // outgoing pointers
}

// Store is the object table: the set of all live-or-garbage objects known to
// the database, each header flagging whether it is a persistent root. A Store
// is not safe for concurrent use; the simulator is single-threaded by design
// (the paper assumes the database is locked during collection).
type Store struct {
	objects Table[*Object]
	roots   int // headers with Root set
	nextOID OID

	totalBytes int // sum of sizes of all objects present in the table

	// Object memory (DESIGN.md §3): headers and slot arrays are carved from
	// slabs, and Remove pushes a header, slot array attached, onto the free
	// list of its slot count; free[pooledSlots+1] holds headers of wider
	// objects, whose slot arrays are plain allocations. A carve advances a
	// count, not the slab's slice, so it stores no pointer into the Store
	// and takes no write barrier while the runtime's collector marks.
	headers     []Object
	headersUsed int
	slots       []OID
	slotsUsed   int
	free        [pooledSlots + 2][]*Object
}

// Each slab is a large allocation of eight 8 KiB pages, 64 KiB: 1365 48-byte
// headers (65 520 bytes; a large object carries no malloc header) and 8192
// OIDs. A growing store pays per span, not per byte, so a slab this size
// costs a restart one span per 1365 objects where the 8 KiB size class cost
// one per 170.
const (
	headerSlab  = 1365
	slotSlab    = 8192
	pooledSlots = 32 // every generator's widest object has 21
)

// NewStore returns an empty object store.
func NewStore() *Store {
	return &Store{nextOID: 1}
}

// MaxOIDGap is how far past the allocation horizon (NextOID) CreateWithOID
// still accepts an OID. Generators, the server and recovery all hand out OIDs
// densely, so a larger jump is a damaged input — a bit-flipped trace event, a
// corrupt image — and honouring it would size the table directory by the
// damage. Recovery, whose survivors can sit far apart, declares its horizon
// with AdvanceNextOID first. The durable backend replays its image and log
// through CreateWithOID, so the same bound holds there.
const MaxOIDGap = 1 << 20

// ErrOIDRange marks a create refused because its OID lies further than
// MaxOIDGap past the allocation horizon.
var ErrOIDRange = errors.New("objstore: OID beyond the allocation horizon")

// MaxSlots is the widest object CreateWithOID accepts, above any generator's
// and the durable backend's page-bound disk.MaxSlots: a larger count is a
// damaged input, and honouring it would size an allocation by the damage.
const MaxSlots = 1 << 16

// ErrSlotRange marks a create refused because its slot count exceeds MaxSlots.
var ErrSlotRange = errors.New("objstore: slot count out of range")

// MaxSize is the largest object size CreateWithOID accepts: the header keeps
// the size in 32 bits, and so does the durable backend's record.
const MaxSize = 1<<32 - 1

// ErrSizeRange marks a create refused because its size exceeds MaxSize.
var ErrSizeRange = errors.New("objstore: object size out of range")

// ErrAbsent marks an operation refused because the object it names does not
// exist: a root change here, an access or update in the heap above.
var ErrAbsent = errors.New("objstore: absent object")

// NextOID returns the OID that the next Create call will assign.
func (s *Store) NextOID() OID { return s.nextOID }

// AdvanceNextOID raises the next-assigned OID to at least n. Crash
// recovery needs it: the reclaimed objects may have held the highest OIDs,
// so recreating the survivors alone would rewind allocation into a range
// the durable log has already seen.
func (s *Store) AdvanceNextOID(n OID) {
	if n > s.nextOID {
		s.nextOID = n
	}
}

// Len returns the number of objects in the table.
func (s *Store) Len() int { return s.objects.Len() }

// Create allocates a new object with the given class, size and slot count,
// assigns it a fresh OID and enters it in the table. All slots start nil.
func (s *Store) Create(class Class, size, nslots int) (*Object, error) {
	return s.CreateWithOID(s.nextOID, class, size, nslots)
}

// CreateWithOID enters an object with a caller-chosen OID, used when
// replaying traces whose OIDs were assigned by the generator. It returns an
// error if the OID is nil, already present, or more than MaxOIDGap past the
// allocation horizon (ErrOIDRange), if the size exceeds MaxSize
// (ErrSizeRange), or if the slot count exceeds MaxSlots (ErrSlotRange). The
// internal OID counter is advanced past the given OID so later Create calls
// cannot collide.
func (s *Store) CreateWithOID(oid OID, class Class, size, nslots int) (*Object, error) {
	if oid.IsNil() {
		return nil, fmt.Errorf("objstore: cannot create object with nil OID")
	}
	if s.objects.Get(oid) != nil {
		return nil, fmt.Errorf("objstore: duplicate OID %v", oid)
	}
	if oid >= s.nextOID && oid-s.nextOID >= MaxOIDGap {
		return nil, fmt.Errorf("%w: %v with next OID %v", ErrOIDRange, oid, s.nextOID)
	}
	if size < 0 || nslots < 0 {
		return nil, fmt.Errorf("objstore: invalid size %d or slot count %d", size, nslots)
	}
	if size > MaxSize {
		return nil, fmt.Errorf("%w: size %d for %v, at most %d", ErrSizeRange, size, oid, uint32(MaxSize))
	}
	if nslots > MaxSlots {
		return nil, fmt.Errorf("%w: %d slots for %v, at most %d", ErrSlotRange, nslots, oid, MaxSlots)
	}
	o := s.alloc(nslots)
	if nslots > pooledSlots {
		o.Slots = make([]OID, nslots)
	}
	o.OID, o.Class, o.Size = oid, class, uint32(size)
	o.Mark, o.Root, o.Dead, o.PartPlus1, o.Offset = 0, false, false, 0, 0 // unmarked, unflagged and unplaced, if recycled
	s.objects.Set(oid, o)
	s.totalBytes += size
	if oid >= s.nextOID {
		s.nextOID = oid + 1
	}
	return o, nil
}

// alloc returns a header for CreateWithOID to fill in: the last one freed
// with that slot count, its slots attached and cleared here, or a fresh one
// carved from the slabs. One for more than pooledSlots slots comes without,
// and so does one for none: a slotless header holds no pointer for the
// runtime's collector to resolve.
func (s *Store) alloc(nslots int) *Object {
	k := min(nslots, pooledSlots+1)
	if f := s.free[k]; len(f) > 0 {
		s.free[k] = f[:len(f)-1]
		clear(f[len(f)-1].Slots)
		return f[len(f)-1]
	}
	if s.headersUsed == len(s.headers) {
		s.headers, s.headersUsed = make([]Object, headerSlab), 0
	}
	o := &s.headers[s.headersUsed]
	s.headersUsed++
	if nslots > 0 && k <= pooledSlots {
		if s.slotsUsed+nslots > len(s.slots) {
			s.slots, s.slotsUsed = make([]OID, slotSlab), 0
		}
		end := s.slotsUsed + nslots
		o.Slots, s.slotsUsed = s.slots[s.slotsUsed:end:end], end
	}
	return o
}

// Get returns the object with the given OID, or nil if absent. The pointer
// is valid until the object is removed: Remove recycles the header, which
// may then become a different object.
func (s *Store) Get(oid OID) *Object {
	return s.objects.Get(oid)
}

// Remove deletes an object from the table (after it has been reclaimed by
// the collector) and recycles its memory, unplaced; pointers to it obtained
// earlier must not be used again. Removing an absent OID is an error;
// reclaiming the same object twice indicates a collector bug.
func (s *Store) Remove(oid OID) error {
	o := s.objects.Get(oid)
	if o == nil {
		return fmt.Errorf("objstore: remove of absent object %v", oid)
	}
	s.objects.Set(oid, nil)
	if o.Root {
		s.roots--
	}
	s.totalBytes -= int(o.Size)
	o.PartPlus1 = 0
	k := min(len(o.Slots), pooledSlots+1)
	if k > pooledSlots {
		o.Slots = nil
	}
	s.free[k] = append(s.free[k], o)
	return nil
}

// SetSlot overwrites pointer slot i of the object src to point at dst
// (which may be NilOID). It returns the previous slot value.
func (s *Store) SetSlot(src OID, i int, dst OID) (old OID, err error) {
	o := s.objects.Get(src)
	if o == nil {
		return NilOID, fmt.Errorf("objstore: set slot on absent object %v", src)
	}
	if i < 0 || i >= len(o.Slots) {
		return NilOID, fmt.Errorf("objstore: slot %d out of range [0,%d) on %v", i, len(o.Slots), src)
	}
	if !dst.IsNil() && s.objects.Get(dst) == nil {
		return NilOID, fmt.Errorf("objstore: slot target %v does not exist", dst)
	}
	old = o.Slots[i]
	o.Slots[i] = dst
	return old, nil
}

// AddRoot marks an object as a persistent root. Roots are always reachable.
func (s *Store) AddRoot(oid OID) error {
	o := s.objects.Get(oid)
	if o == nil {
		return fmt.Errorf("%w %v: cannot root it", ErrAbsent, oid)
	}
	if !o.Root {
		o.Root = true
		s.roots++
	}
	return nil
}

// RemoveRoot clears the root mark from an object. It is not an error if the
// object was not a root, but it is one if the object does not exist.
func (s *Store) RemoveRoot(oid OID) error {
	o := s.objects.Get(oid)
	if o == nil {
		return fmt.Errorf("%w %v: cannot unroot it", ErrAbsent, oid)
	}
	if o.Root {
		o.Root = false
		s.roots--
	}
	return nil
}

// IsRoot reports whether the object is in the persistent root set.
func (s *Store) IsRoot(oid OID) bool { o := s.objects.Get(oid); return o != nil && o.Root }

// NumRoots returns the size of the persistent root set without building the
// slice Roots returns — the form statistics paths should use.
func (s *Store) NumRoots() int { return s.roots }

// Roots returns the persistent root set in ascending OID order, by a store walk.
func (s *Store) Roots() []OID {
	out := make([]OID, 0, s.roots)
	s.ForEach(func(o *Object) {
		if o.Root {
			out = append(out, o.OID)
		}
	})
	return out
}

// ForEach calls fn for every object in the table in ascending OID order.
// The order is deterministic so that simulation replay is reproducible.
// The callback must not create or remove objects. The loop runs over the
// table's chunks directly: walks that serialize the whole store (a durable
// checkpoint, its digest) go through here.
func (s *Store) ForEach(fn func(*Object)) {
	for _, c := range s.objects.dir {
		if c == nil {
			continue
		}
		for _, o := range c {
			if o != nil {
				fn(o)
			}
		}
	}
}

// Reachable computes the set of objects reachable from the persistent roots
// by breadth-first traversal of pointer slots. It is O(objects) and intended
// for validation, statistics, and tests — not for the simulation fast path.
func (s *Store) Reachable() *Table[bool] {
	seen := new(Table[bool])
	// The queue is sized for the whole table up front.
	queue := append(make([]OID, 0, s.objects.Len()), s.Roots()...)
	for _, oid := range queue {
		seen.Set(oid, true)
	}
	for head := 0; head < len(queue); head++ {
		o := s.objects.Get(queue[head])
		if o == nil {
			continue
		}
		for _, t := range o.Slots {
			if t.IsNil() || seen.Get(t) || s.objects.Get(t) == nil {
				continue
			}
			seen.Set(t, true)
			queue = append(queue, t)
		}
	}
	return seen
}

// Stats summarizes the object table for diagnostics.
type Stats struct {
	Objects    int
	TotalBytes int
	Roots      int
	ByClass    map[Class]ClassStats
}

// ClassStats summarizes one class within Stats.
type ClassStats struct {
	Count int
	Bytes int
}

// Stats computes a summary of the object table.
func (s *Store) Stats() Stats {
	st := Stats{
		Objects:    s.objects.Len(),
		TotalBytes: s.totalBytes,
		Roots:      s.roots,
		ByClass:    make(map[Class]ClassStats),
	}
	s.ForEach(func(o *Object) {
		cs := st.ByClass[o.Class]
		cs.Count++
		cs.Bytes += int(o.Size)
		st.ByClass[o.Class] = cs
	})
	return st
}

// AverageObjectSize returns the mean object size in bytes, or 0 for an empty
// store. The paper reports ≈133 bytes for the OO7 Small' database.
func (s *Store) AverageObjectSize() float64 {
	if s.objects.Len() == 0 {
		return 0
	}
	return float64(s.totalBytes) / float64(s.objects.Len())
}

// InDegrees computes, for every object, the number of pointer slots in other
// objects that reference it. Used to validate the connectivity claims of the
// OO7 generator (average connectivity ≈ 4 at NumConnPerAtomic = 3).
func (s *Store) InDegrees() map[OID]int {
	in := make(map[OID]int, s.objects.Len())
	s.ForEach(func(o *Object) { in[o.OID] = 0 })
	s.ForEach(func(o *Object) {
		for _, t := range o.Slots {
			if !t.IsNil() && s.objects.Get(t) != nil {
				in[t]++
			}
		}
	})
	return in
}
