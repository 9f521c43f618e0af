package gc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"odbgc/internal/objstore"
	"odbgc/internal/storage"
)

// TestHeapRandomOpsProperty drives a heap through random create / link /
// unlink / collect sequences while maintaining an exact shadow model of
// reachability, verifying after every collection that:
//
//   - the collector never reclaims a reachable object,
//   - all incremental bookkeeping (remsets, oracle ledger, placements)
//     matches ground truth,
//   - repeated full sweeps eventually reclaim every acyclic dead object.
func TestHeapRandomOpsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		disk, err := storage.NewManager(storage.Config{PageSize: 120, PagesPerPartition: 3, BufferPages: 3})
		if err != nil {
			return false
		}
		st := objstore.NewStore()
		h := NewHeap(st, disk)

		// The shadow model: alive OIDs and, to avoid uncollectable
		// cross-partition cycles, a strictly layered graph — an object may
		// only point at objects created before it... inverted: links only
		// from NEWER to OLDER objects can still form no cycles. We allow
		// links old->new and new->old but forbid closing cycles by only
		// ever linking from lower OID to higher OID.
		var oids []objstore.OID
		next := objstore.OID(1)
		declaredDead := map[objstore.OID]bool{}

		// Root anchor.
		if err := h.Create(next, objstore.ClassModule, 60, 6); err != nil {
			return false
		}
		if err := st.AddRoot(next); err != nil {
			return false
		}
		oids = append(oids, next)
		next++

		// declareNewDead syncs the oracle with ground truth after an
		// unlink: everything alive in the store but unreachable and not
		// yet declared is newly dead.
		declareNewDead := func() bool {
			live := st.Reachable()
			var newly []objstore.OID
			st.ForEach(func(o *objstore.Object) {
				if live.Get(o.OID) {
					return
				}
				if !declaredDead[o.OID] {
					newly = append(newly, o.OID)
					declaredDead[o.OID] = true
				}
			})
			return h.RecordOracleDead(newly) == nil
		}

		for step := 0; step < 150; step++ {
			switch op := rng.Intn(10); {
			case op < 4: // create, linked from a random live object with a free slot
				size := 20 + rng.Intn(100)
				if err := h.Create(next, objstore.ClassAtomicPart, size, 1+rng.Intn(3)); err != nil {
					return false
				}
				// Find a live linker among existing objects. (A real
				// application cannot store through an unreachable object.)
				linked := false
				for tries := 0; tries < 20 && !linked; tries++ {
					src := oids[rng.Intn(len(oids))]
					so := st.Get(src)
					if so == nil || declaredDead[src] {
						continue
					}
					for i, slot := range so.Slots {
						if slot.IsNil() {
							if err := h.Overwrite(src, i, objstore.NilOID, next, true); err != nil {
								return false
							}
							linked = true
							break
						}
					}
				}
				oids = append(oids, next)
				next++
				if !linked {
					// Unreferenced from birth: immediately dead.
					if !declareNewDead() {
						return false
					}
				}
			case op < 6: // link lower -> higher OID (acyclic by construction)
				src := oids[rng.Intn(len(oids))]
				so := st.Get(src)
				if so == nil || declaredDead[src] {
					continue
				}
				dst := oids[rng.Intn(len(oids))]
				// Only live targets: an application holds references to
				// reachable objects only, so it can never resurrect garbage.
				if dst <= src || st.Get(dst) == nil || declaredDead[dst] {
					continue
				}
				for i, slot := range so.Slots {
					if slot.IsNil() {
						if err := h.Overwrite(src, i, objstore.NilOID, dst, false); err != nil {
							return false
						}
						break
					}
				}
			case op < 8: // unlink a random non-nil slot
				src := oids[rng.Intn(len(oids))]
				so := st.Get(src)
				if so == nil {
					continue
				}
				for i, slot := range so.Slots {
					if !slot.IsNil() {
						if err := h.Overwrite(src, i, slot, objstore.NilOID, false); err != nil {
							return false
						}
						if !declareNewDead() {
							return false
						}
						break
					}
				}
			default: // collect a random partition
				if n := disk.NumPartitions(); n > 0 {
					res, err := h.Collect(storage.PartitionID(rng.Intn(n)))
					if err != nil {
						t.Logf("seed %d step %d: collect: %v", seed, step, err)
						return false
					}
					_ = res
					if err := h.CheckInvariants(); err != nil {
						t.Logf("seed %d step %d: invariants: %v", seed, step, err)
						return false
					}
				}
			}
		}

		// Final sweep: collect every partition repeatedly; since the graph
		// is acyclic, all garbage must eventually be reclaimed.
		for pass := 0; pass < disk.NumPartitions()+2; pass++ {
			for p := 0; p < disk.NumPartitions(); p++ {
				if _, err := h.Collect(storage.PartitionID(p)); err != nil {
					t.Logf("seed %d final sweep: %v", seed, err)
					return false
				}
			}
		}
		if h.ActualGarbageBytes() != 0 {
			t.Logf("seed %d: %d garbage bytes survived a full sweep of an acyclic heap",
				seed, h.ActualGarbageBytes())
			return false
		}
		if err := h.CheckInvariants(); err != nil {
			t.Logf("seed %d: final invariants: %v", seed, err)
			return false
		}
		if err := h.CheckOracleComplete(); err != nil {
			t.Logf("seed %d: oracle completeness: %v", seed, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
