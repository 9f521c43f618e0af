package storage

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"odbgc/internal/objstore"
)

var le = binary.LittleEndian

// AppendState appends the manager's state to b as little-endian uint32s but
// where named: the geometry and the partition count; each partition's cursor
// and used bytes; each object's PartPlus1 and Offset, in its store's OID order;
// the frame count and the frames oldest first, each its page's partition and
// index and a byte of flags (1 dirty, 2 collector-dirty); the four I/O
// counters (uint64s), the I/O class (a byte) and the allocation target.
// DecodeManager reads it back.
func (m *Manager) AppendState(b []byte) []byte {
	u32 := func(vs ...int) {
		for _, v := range vs {
			b = le.AppendUint32(b, uint32(v))
		}
	}
	u32(m.cfg.PageSize, m.cfg.PagesPerPartition, m.cfg.BufferPages, len(m.parts))
	for _, p := range m.parts {
		u32(p.cursor, p.used)
	}
	m.store.ForEach(func(o *objstore.Object) { u32(int(o.PartPlus1), int(o.Offset)) })
	frames := m.buf.Snapshot()
	u32(len(frames))
	for _, f := range frames {
		u32(int(f.Page.Part), f.Page.Index)
		b = append(b, boolByte(f.Dirty)|boolByte(f.GC)<<1)
	}
	for _, v := range []uint64{m.stats.AppReads, m.stats.AppWrites, m.stats.GCReads, m.stats.GCWrites} {
		b = le.AppendUint64(b, v)
	}
	b = append(b, byte(m.class))
	u32(int(m.allocPart))
	return b
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// stateReader takes fields off the front of a state; the first one missing
// fails it, and the reads after that yield zeros.
type stateReader struct {
	b   []byte
	err error
}

func (r *stateReader) take(n int) []byte {
	if r.err == nil && len(r.b) < n {
		r.err = fmt.Errorf("storage: state ends %d bytes into a %d-byte field", len(r.b), n)
	}
	if r.err != nil {
		return make([]byte, n)
	}
	f := r.b[:n]
	r.b = r.b[n:]
	return f
}

func (r *stateReader) u32() int { return int(le.Uint32(r.take(4))) }

// count reads a count of entries of size bytes, refusing more than the state
// has bytes for.
func (r *stateReader) count(size int) int {
	if n := r.u32(); r.err == nil && n > len(r.b)/size {
		r.err = fmt.Errorf("storage: state counts %d entries of %d bytes in %d bytes", n, size, len(r.b))
	} else if r.err == nil {
		return n
	}
	return 0
}

// DecodeManager reads a state AppendState wrote, for a manager that ran on a
// store holding the objects objs holds, into a manager on objs and the
// placements in their headers, and returns what of b follows it. The member
// lists stay empty: gc.Heap.Load adopts each placed object into its
// partition's. It refuses, as damage, what the other checks cannot see: a
// placement outside its partition or past its cursor, two that overlap, a
// frame naming a page no partition has, a collector-dirty page that is clean,
// an unknown I/O class or allocation target. That the used bytes add up is
// CheckInvariants' to check.
func DecodeManager(b []byte, objs *objstore.Store) (*Manager, []byte, error) {
	r := &stateReader{b: b}
	cfg := Config{PageSize: r.u32(), PagesPerPartition: r.u32(), BufferPages: r.u32()}
	nparts := r.count(8)
	if r.err != nil {
		return nil, nil, r.err
	}
	m, err := NewManager(cfg)
	if err != nil {
		return nil, nil, err
	}
	m.store = objs
	for range nparts {
		p := m.newPartition()
		p.cursor, p.used = r.u32(), r.u32()
		if p.cursor > cfg.PartitionBytes() {
			return nil, nil, fmt.Errorf("storage: partition %d cursor %d past its %d bytes", p.id, p.cursor, cfg.PartitionBytes())
		}
		p.page = p.cursor / cfg.PageSize
		m.occupied += p.used
	}

	// Each placement against the geometry and its cursor, then, sorted by
	// partition and offset, against the next.
	if len(r.b) < 8*objs.Len() {
		return nil, nil, fmt.Errorf("storage: state holds placements for fewer than %d objects", objs.Len())
	}
	type extent struct {
		oid            objstore.OID
		part, off, end int
	}
	extents := make([]extent, 0, objs.Len())
	objs.ForEach(func(o *objstore.Object) {
		o.PartPlus1, o.Offset = int32(r.u32()), int32(r.u32())
		part, off, end := int(o.PartPlus1)-1, int(o.Offset), int(o.Offset)+int(o.Size)
		if err != nil || o.PartPlus1 == 0 {
			return
		}
		if err = m.checkPlacement(o.OID, part, off, int(o.Size)); err == nil && end > m.parts[part].cursor {
			err = fmt.Errorf("storage: %v ends at %d, past partition %d's cursor %d", o.OID, end, part, m.parts[part].cursor)
		}
		extents = append(extents, extent{o.OID, part, off, end})
	})
	if err != nil {
		return nil, nil, err
	}
	slices.SortFunc(extents, func(a, b extent) int { return cmp.Or(a.part-b.part, a.off-b.off) })
	for i := 1; i < len(extents); i++ {
		if a, b := extents[i-1], extents[i]; a.part == b.part && a.end > b.off {
			return nil, nil, fmt.Errorf("storage: %v and %v overlap in partition %d", a.oid, b.oid, a.part)
		}
	}

	frames := make([]FrameState, r.count(9))
	for i := range frames {
		pg := PageID{Part: PartitionID(r.u32()), Index: r.u32()}
		flags := r.take(1)[0]
		if int(pg.Part) >= nparts || pg.Index >= cfg.PagesPerPartition || flags > 3 {
			return nil, nil, fmt.Errorf("storage: buffer frame of page %v with flags %#x: no partition has the page, or no frame the flags", pg, flags)
		}
		frames[i] = FrameState{Page: pg, Dirty: flags&1 != 0, GC: flags&2 != 0}
	}
	if err := m.buf.Restore(frames); err != nil {
		return nil, nil, err
	}
	stats := r.take(32)
	m.stats = IOStats{le.Uint64(stats), le.Uint64(stats[8:]), le.Uint64(stats[16:]), le.Uint64(stats[24:])}
	m.class, m.allocPart = IOClass(r.take(1)[0]), PartitionID(r.u32())
	switch {
	case r.err != nil:
		return nil, nil, r.err
	case m.class != IOApp && m.class != IOGC:
		return nil, nil, fmt.Errorf("storage: unknown I/O class %d", m.class)
	case int(m.allocPart) >= max(nparts, 1):
		return nil, nil, fmt.Errorf("storage: allocation target %d out of range", m.allocPart)
	}
	return m, r.b, nil
}

// Adopt lists o, whose header carries a placement in one of a restored
// manager's partitions, as a member of it. gc.Heap.Load adopts in ascending
// OID order, so an object that does not follow its partition's last member
// was listed already.
func (m *Manager) Adopt(o *objstore.Object) error {
	p, _ := PartOf(o)
	if p < 0 || int(p) >= len(m.parts) {
		return fmt.Errorf("storage: %v placed in unknown partition %d", o.OID, p)
	}
	objects := m.parts[p].objects
	if n := len(objects); n > 0 && objects[n-1] >= o.OID {
		return fmt.Errorf("storage: %v adopted into partition %d after %v", o.OID, p, objects[n-1])
	}
	m.parts[p].objects = append(objects, o.OID)
	return nil
}
