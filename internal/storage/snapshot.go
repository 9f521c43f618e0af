package storage

import (
	"fmt"

	"odbgc/internal/objstore"
)

// PartitionState is one partition's checkpointable image. The partition's
// object set is not stored; it is rebuilt from the placement table.
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
// exported so the struct round-trips through encoding/gob. The fault
// injector is runtime wiring and deliberately not part of the state.
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
	st.Placements = make([]PlacementEntry, 0, m.place.Len())
	m.place.ForEach(func(oid objstore.OID, s slot) {
		st.Placements = append(st.Placements, PlacementEntry{OID: oid, Placement: m.placement(s)})
	})
	return st
}

// RestoreManager rebuilds a Manager from a snapshot, validating internal
// consistency before returning it.
func RestoreManager(st *ManagerState) (*Manager, error) {
	if st == nil {
		return nil, fmt.Errorf("storage: nil manager state")
	}
	m, err := NewManager(st.Cfg)
	if err != nil {
		return nil, err
	}
	for i, ps := range st.Partitions {
		p := m.newPartition()
		if ps.Cursor < 0 || ps.Cursor > st.Cfg.PartitionBytes() || ps.Used < 0 {
			return nil, fmt.Errorf("storage: partition %d state out of range: %+v", i, ps)
		}
		p.cursor = ps.Cursor
		p.used = ps.Used
		m.occupied += ps.Used
	}
	for _, pe := range st.Placements {
		// Checked before the narrowing below can hide a damaged field.
		pl := pe.Placement
		if err := m.checkPlacement(pe.OID, pl); err != nil {
			return nil, err
		}
		if m.place.Get(pe.OID).size != 0 {
			return nil, fmt.Errorf("storage: duplicate placement for %v in snapshot", pe.OID)
		}
		m.place.Set(pe.OID, slot{part: int32(pl.Part), offset: int32(pl.Offset), size: int32(pl.Size)})
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
