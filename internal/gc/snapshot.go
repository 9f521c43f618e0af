package gc

import (
	"cmp"
	"fmt"
	"slices"

	"odbgc/internal/objstore"
	"odbgc/internal/storage"
)

// RemsetEntry is one remembered-set counter in flattened, sortable form.
type RemsetEntry struct {
	Part  storage.PartitionID
	Dst   objstore.OID
	Src   objstore.OID
	Count int
}

// PartitionCounter pairs a partition with an integer counter (overwrites or
// oracle garbage bytes).
type PartitionCounter struct {
	Part  storage.PartitionID
	Value int
}

// HeapSnapshot is a checkpointable image of the collector bookkeeping plus
// the wrapped store and storage manager. Slices are sorted so the encoded
// form is deterministic.
type HeapSnapshot struct {
	Store *objstore.StoreSnapshot
	Disk  *storage.ManagerState

	Remset          []RemsetEntry
	Overwrites      []PartitionCounter // po, by partition
	TotalOverwrites uint64

	OracleDead      []objstore.OID // ascending
	OracleDeadBytes []PartitionCounter

	TotalGarbage     uint64
	TotalCollected   uint64
	TotalCollections uint64
	PhysicalFixups   bool
	Oracleless       bool
}

// counters lists the non-zero entries of a partition-indexed counter slice.
func counters(s []int) []PartitionCounter {
	var out []PartitionCounter
	for p, n := range s {
		if n != 0 {
			out = append(out, PartitionCounter{Part: storage.PartitionID(p), Value: n})
		}
	}
	return out
}

// remsetEntries derives the remembered sets from the graph, sorted by
// (partition, target, source) with one entry per distinct triple. A heap
// with an unplaced object yields a short list, which fails the restore's
// comparison against the graph.
func (h *Heap) remsetEntries() []RemsetEntry {
	var out []RemsetEntry
	_ = h.externalRefs(func(p storage.PartitionID, dst, src objstore.OID) {
		out = append(out, RemsetEntry{Part: p, Dst: dst, Src: src, Count: 1})
	})
	slices.SortFunc(out, func(a, b RemsetEntry) int {
		return cmp.Or(cmp.Compare(a.Part, b.Part), cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Src, b.Src))
	})
	merged := out[:0]
	for _, e := range out {
		if n := len(merged); n > 0 && merged[n-1].Part == e.Part && merged[n-1].Dst == e.Dst && merged[n-1].Src == e.Src {
			merged[n-1].Count++
		} else {
			merged = append(merged, e)
		}
	}
	return merged
}

// Snapshot captures the heap, its object store, and its storage manager.
func (h *Heap) Snapshot() *HeapSnapshot {
	st := &HeapSnapshot{
		Store:            h.store.Snapshot(),
		Disk:             h.disk.Snapshot(),
		Remset:           h.remsetEntries(),
		Overwrites:       counters(h.po),
		TotalOverwrites:  h.totalOverwrites,
		OracleDeadBytes:  counters(h.oracleDeadBytes),
		TotalGarbage:     h.totalGarbage,
		TotalCollected:   h.totalCollected,
		TotalCollections: h.totalCollections,
		PhysicalFixups:   h.physicalFixups,
		Oracleless:       h.oracleless,
	}
	h.oracleDead.ForEach(func(oid objstore.OID, _ bool) { st.OracleDead = append(st.OracleDead, oid) })
	return st
}

// restoreCounters fills a partition-indexed counter slice from its snapshot
// form and returns the sum.
func (h *Heap) restoreCounters(dst *[]int, cs []PartitionCounter) (int, error) {
	sum := 0
	for _, c := range cs {
		if c.Part < 0 || int(c.Part) >= h.disk.NumPartitions() {
			return 0, fmt.Errorf("gc: snapshot counter for unknown partition %d", c.Part)
		}
		*counterAt(dst, c.Part) = c.Value
		sum += c.Value
	}
	return sum, nil
}

// RestoreHeap rebuilds a heap (with its store and storage manager) from a
// snapshot and cross-validates the result. The per-object reference counts
// and the running totals are not in the snapshot: they are rebuilt from the
// graph and the per-partition counters, and the snapshot's remembered sets
// must be exactly what the graph implies.
func RestoreHeap(st *HeapSnapshot) (*Heap, error) {
	if st == nil {
		return nil, fmt.Errorf("gc: nil heap snapshot")
	}
	store, err := objstore.RestoreStore(st.Store)
	if err != nil {
		return nil, err
	}
	// The store has vetted its OIDs against its horizon; a placement for an
	// object it does not hold is damage, and must not size the placement
	// table.
	if st.Disk != nil {
		for _, pe := range st.Disk.Placements {
			if store.Get(pe.OID) == nil {
				return nil, fmt.Errorf("gc: snapshot places %v, which is not in the snapshot store", pe.OID)
			}
		}
	}
	disk, err := storage.RestoreManager(st.Disk)
	if err != nil {
		return nil, err
	}
	h := NewHeap(store, disk)
	h.physicalFixups = st.PhysicalFixups
	h.oracleless = st.Oracleless
	if !slices.Equal(h.remsetEntries(), st.Remset) {
		return nil, fmt.Errorf("gc: snapshot remembered sets disagree with the snapshot object graph")
	}
	for _, e := range st.Remset {
		h.ext.Set(e.Dst, h.ext.Get(e.Dst)+int32(e.Count))
	}
	if h.poTotal, err = h.restoreCounters(&h.po, st.Overwrites); err != nil {
		return nil, err
	}
	for _, oid := range st.OracleDead {
		if store.Get(oid) == nil {
			return nil, fmt.Errorf("gc: oracle-dead object %v missing from snapshot store", oid)
		}
		h.oracleDead.Set(oid, true)
	}
	if h.garbage, err = h.restoreCounters(&h.oracleDeadBytes, st.OracleDeadBytes); err != nil {
		return nil, err
	}
	h.totalOverwrites = st.TotalOverwrites
	h.totalGarbage = st.TotalGarbage
	h.totalCollected = st.TotalCollected
	h.totalCollections = st.TotalCollections
	if err := h.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("gc: restored heap inconsistent: %w", err)
	}
	return h, nil
}
