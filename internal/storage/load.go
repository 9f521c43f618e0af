package storage

import (
	"fmt"

	"odbgc/internal/objstore"
)

// Loader fills an empty Manager with a recovered database: Place stands for
// Allocate and Dirty for Touch(oid, true), and the Manager ends in exactly the
// state those calls would have left — placements, partitions, buffered pages
// in their order with their dirty bits, I/O counts. What it saves is what a
// run of such calls repeats. While objects land behind the cursor on one page,
// the allocation target, the page, and the buffer are where the last call left
// them, so the placement is an addition; and the page is the pool's most
// recent frame, already dirty, so pinning it again would change nothing — the
// pool is asked once per page change. Nothing else may use the Manager
// between a Loader's calls.
type Loader struct {
	m       *Manager
	part    *partition // the allocation target, nil before the first placement
	pageEnd int        // where the page under its cursor ends
	front   PageID     // the page pinned last: most recently used, and dirty
}

// NewLoader returns a Loader for m, which must hold nothing yet.
func (m *Manager) NewLoader() (*Loader, error) {
	if len(m.parts) != 0 || m.buf.Len() != 0 {
		return nil, fmt.Errorf("storage: load into a manager that already holds %d partitions and %d buffered pages",
			len(m.parts), m.buf.Len())
	}
	return &Loader{m: m}, nil
}

// Place places a new object as Allocate does, with Allocate's refusals. A
// fault injector is consulted per operation, so with one installed every
// placement goes the long way.
func (l *Loader) Place(oid objstore.OID, size int) error {
	m := l.m
	if p := l.part; p != nil && size > 0 && p.cursor+size <= l.pageEnd && m.fault == nil && m.place.Get(oid).size == 0 {
		m.place.Set(oid, slot{part: int32(p.id), offset: int32(p.cursor), size: int32(size)})
		p.add(oid)
		p.cursor += size
		p.used += size
		m.occupied += size
		return nil
	}
	pl, err := m.Allocate(oid, size)
	if err != nil {
		return err
	}
	l.part = m.parts[pl.Part]
	l.pageEnd = (pl.Page + 1) * m.cfg.PageSize
	l.front = PageID{pl.Part, pl.Page}
	return nil
}

// Dirty marks the page holding oid written, as Touch(oid, true) does.
func (l *Loader) Dirty(oid objstore.OID) error {
	m := l.m
	s := m.place.Get(oid)
	pg := PageID{PartitionID(s.part), int(s.offset) / m.cfg.PageSize}
	if s.size != 0 && pg == l.front && m.fault == nil {
		return nil
	}
	if err := m.Touch(oid, true); err != nil {
		return err
	}
	l.front = pg
	return nil
}
