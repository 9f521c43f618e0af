package storage

import (
	"cmp"
	"fmt"

	"odbgc/internal/objstore"
)

// PartitionState is one partition's checkpointable image. The partition's
// object set is not stored; it is rebuilt from the placements.
type PartitionState struct {
	Cursor int
	Used   int
}

// PlacementEntry pairs an object with its placement, in a slice so the
// encoded form is deterministic.
type PlacementEntry struct {
	OID       objstore.OID
	Placement Placement
}

// ManagerState is a checkpointable image of a Manager. All fields are
// exported so the struct round-trips through encoding/gob.
type ManagerState struct {
	Cfg        Config
	Partitions []PartitionState // index = PartitionID
	Placements []PlacementEntry // ascending OID
	Buffer     []FrameState     // LRU order, oldest first
	Stats      IOStats
	Class      IOClass
	AllocPart  PartitionID
	GCDirty    []PageID // sorted (Part, Index)
}

// Snapshot captures the manager's full physical state for checkpointing.
func (m *Manager) Snapshot() *ManagerState {
	st := &ManagerState{
		Cfg:       m.cfg,
		Stats:     m.stats,
		Class:     m.class,
		AllocPart: m.allocPart,
		Buffer:    m.buf.Snapshot(),
		GCDirty:   m.buf.gcPages(),
	}
	for _, p := range m.parts {
		st.Partitions = append(st.Partitions, PartitionState{Cursor: p.cursor, Used: p.used})
	}
	st.Placements = make([]PlacementEntry, 0, m.store.Len())
	m.store.ForEach(func(o *objstore.Object) {
		if o.PartPlus1 != 0 {
			st.Placements = append(st.Placements, PlacementEntry{OID: o.OID, Placement: m.placement(o)})
		}
	})
	return st
}

// RestoreManager rebuilds a Manager from a snapshot, validating internal
// consistency before returning it. The placements go into the unplaced
// headers of objs or, with objs nil, into bare headers in a store of its own.
func RestoreManager(st *ManagerState, objs *objstore.Store) (*Manager, error) {
	if st == nil {
		return nil, fmt.Errorf("storage: nil manager state")
	}
	m, err := NewManager(st.Cfg)
	if err != nil {
		return nil, err
	}
	if objs != nil {
		m.store = objs
	}
	for i, ps := range st.Partitions {
		p := m.newPartition()
		if ps.Cursor < 0 || ps.Cursor > st.Cfg.PartitionBytes() || ps.Used < 0 {
			return nil, fmt.Errorf("storage: partition %d state out of range: %+v", i, ps)
		}
		p.cursor, p.page = ps.Cursor, ps.Cursor/st.Cfg.PageSize
		p.used = ps.Used
		m.occupied += ps.Used
	}
	for _, pe := range st.Placements {
		// Checked before the narrowing below can hide a damaged field.
		pl := pe.Placement
		if err := m.checkPlacement(pe.OID, int(pl.Part), pl.Offset, pl.Size); err != nil || pl.Page != pl.Offset/st.Cfg.PageSize {
			return nil, cmp.Or(err, fmt.Errorf("storage: %v page %d disagrees with offset %d", pe.OID, pl.Page, pl.Offset))
		}
		o := m.store.Get(pe.OID)
		if o == nil && objs == nil {
			o, _ = m.store.CreateWithOID(pe.OID, objstore.ClassUnknown, pl.Size, 0) // refused: o stays nil
		}
		switch {
		case o == nil:
			return nil, fmt.Errorf("storage: snapshot places %v, which is not in the snapshot store", pe.OID)
		case o.PartPlus1 != 0:
			return nil, fmt.Errorf("storage: duplicate placement for %v in snapshot", pe.OID)
		case int(o.Size) != pl.Size:
			return nil, fmt.Errorf("storage: snapshot places %v with size %d, its header says %d", pe.OID, pl.Size, o.Size)
		}
		o.PartPlus1, o.Offset = int32(pl.Part)+1, int32(pl.Offset)
		m.parts[pl.Part].add(pe.OID)
	}
	if err := m.buf.Restore(st.Buffer); err != nil {
		return nil, err
	}
	if err := m.buf.restoreGC(st.GCDirty); err != nil {
		return nil, err
	}
	m.stats = st.Stats
	m.class = st.Class
	if int(st.AllocPart) < 0 || (len(m.parts) > 0 && int(st.AllocPart) >= len(m.parts)) {
		return nil, fmt.Errorf("storage: allocation target %d out of range", st.AllocPart)
	}
	m.allocPart = st.AllocPart
	if err := m.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("storage: restored state inconsistent: %w", err)
	}
	return m, nil
}
