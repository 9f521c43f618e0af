package gc

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"odbgc/internal/objstore"
	"odbgc/internal/storage"
)

// model is a reference implementation of the heap's bookkeeping kept the way
// it was before the OID-indexed tables: hash maps for the object table, the
// root set, the placement, the three-level remembered sets, the overwrite
// counters and the oracle ledger, every total summed on demand. It shares no
// code with Heap; the differential test drives both with one operation
// sequence and compares everything observable after each step.
//
// Placement itself (which partition the bump allocator picks) is not
// modelled: the model copies it from the storage manager when an object is
// created, which is sound because objects never change partition.
type model struct {
	objects   map[objstore.OID]*modelObject
	roots     map[objstore.OID]bool
	part      map[objstore.OID]storage.PartitionID
	remset    map[storage.PartitionID]map[objstore.OID]map[objstore.OID]int
	po        map[storage.PartitionID]int
	dead      map[objstore.OID]bool
	deadBytes map[storage.PartitionID]int
}

type modelObject struct {
	size  int
	slots []objstore.OID
}

func newModel() *model {
	return &model{
		objects:   map[objstore.OID]*modelObject{},
		roots:     map[objstore.OID]bool{},
		part:      map[objstore.OID]storage.PartitionID{},
		remset:    map[storage.PartitionID]map[objstore.OID]map[objstore.OID]int{},
		po:        map[storage.PartitionID]int{},
		dead:      map[objstore.OID]bool{},
		deadBytes: map[storage.PartitionID]int{},
	}
}

func (m *model) remember(dst, src objstore.OID, delta int) {
	p := m.part[dst]
	if m.remset[p] == nil {
		m.remset[p] = map[objstore.OID]map[objstore.OID]int{}
	}
	if m.remset[p][dst] == nil {
		m.remset[p][dst] = map[objstore.OID]int{}
	}
	m.remset[p][dst][src] += delta
	if m.remset[p][dst][src] == 0 {
		delete(m.remset[p][dst], src)
	}
	if len(m.remset[p][dst]) == 0 {
		delete(m.remset[p], dst)
	}
}

func (m *model) overwrite(src objstore.OID, slot int, dst objstore.OID, init bool) {
	o := m.objects[src]
	old := o.slots[slot]
	o.slots[slot] = dst
	if old != objstore.NilOID {
		if m.part[old] != m.part[src] {
			m.remember(old, src, -1)
		}
		if !init {
			m.po[m.part[old]]++
		}
	}
	if dst != objstore.NilOID && m.part[dst] != m.part[src] {
		m.remember(dst, src, +1)
	}
}

// reachable is whole-graph reachability from the roots.
func (m *model) reachable() map[objstore.OID]bool {
	seen := map[objstore.OID]bool{}
	var queue []objstore.OID
	for r := range m.roots {
		seen[r] = true
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		o := m.objects[queue[0]]
		queue = queue[1:]
		for _, t := range o.slots {
			if t != objstore.NilOID && !seen[t] {
				seen[t] = true
				queue = append(queue, t)
			}
		}
	}
	return seen
}

// newlyDead declares to the model's oracle every unreachable object it does
// not know yet, and returns them in ascending order for the heap's.
func (m *model) newlyDead() []objstore.OID {
	live := m.reachable()
	var out []objstore.OID
	for oid, o := range m.objects {
		if !live[oid] && !m.dead[oid] {
			m.dead[oid] = true
			m.deadBytes[m.part[oid]] += o.size
			out = append(out, oid)
		}
	}
	slices.Sort(out)
	return out
}

func (m *model) members(p storage.PartitionID) []objstore.OID {
	var out []objstore.OID
	for oid, q := range m.part {
		if q == p {
			out = append(out, oid)
		}
	}
	slices.Sort(out)
	return out
}

// collect is the partitioned trace written against the maps: roots of the
// partition are database roots and remembered targets, the trace stays
// inside the partition, and what it does not reach is reclaimed.
func (m *model) collect(p storage.PartitionID) (want CollectionResult, reclaimed []objstore.OID) {
	members := m.members(p)
	seen := map[objstore.OID]bool{}
	var queue []objstore.OID
	for _, oid := range members {
		if m.roots[oid] || len(m.remset[p][oid]) > 0 {
			seen[oid] = true
			queue = append(queue, oid)
		}
	}
	for head := 0; head < len(queue); head++ {
		o := m.objects[queue[head]]
		want.LiveObjects++
		want.LiveBytes += o.size
		for _, t := range o.slots {
			if t != objstore.NilOID && m.part[t] == p && !seen[t] {
				seen[t] = true
				queue = append(queue, t)
			}
		}
	}
	for _, oid := range members {
		if seen[oid] {
			continue
		}
		o := m.objects[oid]
		for _, t := range o.slots {
			if t != objstore.NilOID && m.part[t] != p {
				m.remember(t, oid, -1)
			}
		}
		if m.dead[oid] {
			delete(m.dead, oid)
			m.deadBytes[p] -= o.size
		}
		want.ReclaimedObjects++
		want.ReclaimedBytes += o.size
		reclaimed = append(reclaimed, oid)
	}
	for _, oid := range reclaimed {
		delete(m.objects, oid)
		delete(m.roots, oid)
		delete(m.part, oid)
	}
	want.Partition = p
	want.PartitionPO = m.po[p]
	delete(m.po, p)
	return want, reclaimed
}

// remsetEntry is one remembered-set counter: Count pointer slots of Src
// reference Dst, placed in partition Part, from another partition.
type remsetEntry struct {
	Part     storage.PartitionID
	Dst, Src objstore.OID
	Count    int
}

func sortRemset(out []remsetEntry) []remsetEntry {
	slices.SortFunc(out, func(a, b remsetEntry) int {
		return cmp.Or(cmp.Compare(a.Part, b.Part), cmp.Compare(a.Dst, b.Dst), cmp.Compare(a.Src, b.Src))
	})
	return out
}

func (m *model) remsetEntries() []remsetEntry {
	var out []remsetEntry
	for p, dsts := range m.remset {
		for dst, srcs := range dsts {
			for src, n := range srcs {
				out = append(out, remsetEntry{Part: p, Dst: dst, Src: src, Count: n})
			}
		}
	}
	return sortRemset(out)
}

// heapRemset derives the heap's remembered sets from its graph and placement,
// one entry per distinct (partition, target, source).
func heapRemset(h *Heap) ([]remsetEntry, error) {
	var out []remsetEntry
	err := h.externalRefs(func(p storage.PartitionID, dst, src objstore.OID) {
		out = append(out, remsetEntry{Part: p, Dst: dst, Src: src, Count: 1})
	})
	merged := sortRemset(out)[:0]
	for _, e := range out {
		if n := len(merged); n > 0 && merged[n-1].Part == e.Part && merged[n-1].Dst == e.Dst && merged[n-1].Src == e.Src {
			merged[n-1].Count++
		} else {
			merged = append(merged, e)
		}
	}
	return merged, err
}

// compare checks everything the heap, the store and the manager expose
// against the model.
func (m *model) compare(h *Heap) error {
	st, disk := h.Store(), h.Disk()
	if st.Len() != len(m.objects) {
		return fmt.Errorf("store holds %d objects, model %d", st.Len(), len(m.objects))
	}
	dbBytes, pinned := 0, 0
	for oid, o := range m.objects {
		got := st.Get(oid)
		if got == nil || int(got.Size) != o.size || !slices.Equal(got.Slots, o.slots) {
			return fmt.Errorf("object %v: store has %+v, model %+v", oid, got, o)
		}
		if st.IsRoot(oid) != m.roots[oid] {
			return fmt.Errorf("object %v: root=%v, model %v", oid, st.IsRoot(oid), m.roots[oid])
		}
		p, ok := disk.PartitionOf(oid)
		if !ok || p != m.part[oid] {
			return fmt.Errorf("object %v: placed in %d (%v), model %d", oid, p, ok, m.part[oid])
		}
		remembered := len(m.remset[p][oid]) > 0
		if externallyReferenced(h, p, oid) != remembered {
			return fmt.Errorf("object %v: externally referenced=%v, model %v", oid, !remembered, remembered)
		}
		if externallyReferenced(h, p+1, oid) {
			return fmt.Errorf("object %v reported remembered in a partition it is not in", oid)
		}
		dbBytes += o.size
		if m.dead[oid] && remembered {
			pinned += o.size
		}
	}
	if got := st.Roots(); len(got) != len(m.roots) || !slices.IsSorted(got) {
		return fmt.Errorf("roots %v, model has %d", got, len(m.roots))
	}
	poSum, garbage := 0, 0
	for p := storage.PartitionID(0); int(p) < disk.NumPartitions(); p++ {
		members, err := disk.AppendMembers(nil, p)
		if err != nil {
			return err
		}
		var got []objstore.OID
		for _, o := range members {
			got = append(got, o.OID)
		}
		if want := m.members(p); !slices.Equal(got, want) {
			return fmt.Errorf("partition %d members %v, model %v", p, got, want)
		}
		if h.PartitionOverwrites(p) != m.po[p] {
			return fmt.Errorf("partition %d overwrites %d, model %d", p, h.PartitionOverwrites(p), m.po[p])
		}
		if h.OracleGarbageIn(p) != m.deadBytes[p] {
			return fmt.Errorf("partition %d garbage %d, model %d", p, h.OracleGarbageIn(p), m.deadBytes[p])
		}
		poSum += m.po[p]
		garbage += m.deadBytes[p]
	}
	switch {
	case h.SumPartitionOverwrites() != poSum:
		return fmt.Errorf("overwrite total %d, model %d", h.SumPartitionOverwrites(), poSum)
	case h.ActualGarbageBytes() != garbage:
		return fmt.Errorf("garbage total %d, model %d", h.ActualGarbageBytes(), garbage)
	case h.DatabaseBytes() != dbBytes:
		return fmt.Errorf("database bytes %d, model %d", h.DatabaseBytes(), dbBytes)
	case h.PinnedGarbageBytes() != pinned:
		return fmt.Errorf("pinned garbage %d, model %d", h.PinnedGarbageBytes(), pinned)
	}
	remset, err := heapRemset(h)
	if want := m.remsetEntries(); err != nil || !slices.Equal(remset, want) {
		return fmt.Errorf("remembered sets (%v)\n got %v\nwant %v", err, remset, want)
	}
	var dead, flagged []objstore.OID
	for oid := range m.dead {
		dead = append(dead, oid)
	}
	slices.Sort(dead)
	st.ForEach(func(o *objstore.Object) {
		if o.Dead {
			flagged = append(flagged, o.OID)
		}
	})
	if !slices.Equal(flagged, dead) {
		return fmt.Errorf("oracle-dead headers %v, model %v", flagged, dead)
	}
	return h.CheckInvariants()
}

// flags checks every header's Root against the model's root set, and the
// heap's count of oracle-dead headers against the model's dead set.
func (m *model) flags(h *Heap) error {
	var err error
	h.Store().ForEach(func(o *objstore.Object) {
		if err == nil && o.Root != m.roots[o.OID] {
			err = fmt.Errorf("header %v: Root=%v, model %v", o.OID, o.Root, m.roots[o.OID])
		}
	})
	if err == nil && h.oracleDead != len(m.dead) {
		err = fmt.Errorf("heap counts %d oracle-dead objects, model %d", h.oracleDead, len(m.dead))
	}
	return err
}

// absent checks that every layer reports a reclaimed OID as gone.
func absent(h *Heap, oid objstore.OID) error {
	_, placed := h.Disk().PartitionOf(oid)
	switch {
	case h.Store().Get(oid) != nil:
		return fmt.Errorf("reclaimed %v still in the store", oid)
	case h.Store().IsRoot(oid):
		return fmt.Errorf("reclaimed %v still a root", oid)
	case placed:
		return fmt.Errorf("reclaimed %v still placed", oid)
	case h.ext.Get(oid) != 0:
		return fmt.Errorf("reclaimed %v still has collector state", oid)
	case h.Access(oid) == nil:
		return fmt.Errorf("access of reclaimed %v succeeded", oid)
	}
	return nil
}

// TestDifferentialAgainstMapModel drives the table-backed store, manager and
// heap and the map-based model through the same random sequence of creates
// (some out of OID order), pointer stores, unlinks, root changes and
// collections. The run is long enough that whole table chunks empty out and
// are released, after which lookups of the reclaimed OIDs must read absent.
// After every step Check and the multi-walk check it replaced
// (referenceCheck) must agree, and accept, and every header's Root flag and
// the heap's count of Dead ones must match the model.
func TestDifferentialAgainstMapModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			h := testHeap(t)
			m := newModel()
			var reclaimed []objstore.OID

			next := objstore.OID(1)
			var skipped []objstore.OID // OIDs passed over, created later out of order
			var alive []objstore.OID   // objects the application can still reach
			create := func(root bool) {
				oid := next
				switch {
				case len(skipped) > 0 && rng.Intn(4) == 0:
					oid, skipped = skipped[0], skipped[1:]
				case rng.Intn(8) == 0:
					skipped = append(skipped, next)
					next++
					oid = next
					next++
				default:
					next++
				}
				size, nslots := 20+rng.Intn(60), 1+rng.Intn(3)
				if err := h.Create(oid, objstore.ClassAtomicPart, size, nslots); err != nil {
					t.Fatal(err)
				}
				p, _ := h.Disk().PartitionOf(oid)
				m.objects[oid] = &modelObject{size: size, slots: make([]objstore.OID, nslots)}
				m.part[oid] = p
				if root {
					if err := h.AddRoot(oid); err != nil {
						t.Fatal(err)
					}
					m.roots[oid] = true
				} else {
					// Wire it to a reachable holder, as an application would.
					src := alive[rng.Intn(len(alive))]
					slot := rng.Intn(len(m.objects[src].slots))
					store(t, h, m, src, slot, oid, m.objects[src].slots[slot] == objstore.NilOID)
				}
				alive = append(alive, oid)
			}
			create(true)

			// collect runs one collection on both sides and compares.
			collect := func(step int, p storage.PartitionID) {
				want, gone := m.collect(p)
				got, err := h.Collect(p)
				if err != nil {
					t.Fatalf("step %d: collect %d: %v", step, p, err)
				}
				got.IO = storage.IOStats{}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: collect %d = %+v, model %+v", step, p, got, want)
				}
				if o := markedHeader(h); o != nil {
					t.Fatalf("step %d: collect %d left mark %d on %v", step, p, o.Mark, o.OID)
				}
				reclaimed = append(reclaimed, gone...)
				if err := m.compare(h); err != nil {
					t.Fatalf("step %d, after collecting %d: %v", step, p, err)
				}
			}

			const steps = 6000
			for step := 0; step < steps; step++ {
				if step%1500 == 1499 {
					// A generation ends: the application moves to a fresh root
					// and lets go of everything older, and the collector
					// sweeps the database a few times (a dead chain across
					// partitions gives up one link per pass). Only garbage
					// pinned by dead cross-partition cycles survives this, so
					// table chunks empty out while the run goes on.
					old := h.Store().Roots()
					create(true)
					for _, oid := range old {
						if err := h.RemoveRoot(oid); err != nil {
							t.Fatal(err)
						}
						delete(m.roots, oid)
					}
					if err := h.RecordOracleDead(m.newlyDead()); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					for pass := 0; pass < 4; pass++ {
						for p := 0; p < h.NumPartitions(); p++ {
							collect(step, storage.PartitionID(p))
						}
					}
				}
				// Only reachable objects can be read or written through.
				live := alive[:0]
				for _, oid := range alive {
					if m.objects[oid] != nil && !m.dead[oid] {
						live = append(live, oid)
					}
				}
				alive = live
				switch op := rng.Intn(20); {
				case op < 9:
					create(rng.Intn(40) == 0)
				case op < 12: // store a pointer to a reachable object
					src, dst := alive[rng.Intn(len(alive))], alive[rng.Intn(len(alive))]
					if src > dst && rng.Intn(8) != 0 {
						// Mostly old to new. The occasional back edge closes
						// cycles; a dead one that spans partitions pins its
						// members for good, and too many of those would keep
						// every chunk occupied.
						src, dst = dst, src
					}
					store(t, h, m, src, rng.Intn(len(m.objects[src].slots)), dst, false)
				case op < 16: // clear a slot
					src := alive[rng.Intn(len(alive))]
					store(t, h, m, src, rng.Intn(len(m.objects[src].slots)), objstore.NilOID, false)
				case op < 17: // drop a root, but never the last one
					if len(m.roots) > 1 {
						for _, oid := range alive {
							if m.roots[oid] {
								if err := h.RemoveRoot(oid); err != nil {
									t.Fatal(err)
								}
								delete(m.roots, oid)
								break
							}
						}
					}
				default:
					collect(step, storage.PartitionID(rng.Intn(h.NumPartitions())))
				}
				if dead := m.newlyDead(); len(dead) > 0 {
					if err := h.RecordOracleDead(dead); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
				if err := agree(t, h, fmt.Sprintf("step %d", step)); err != nil {
					t.Fatal(err)
				}
				if err := m.flags(h); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if step%97 == 0 {
					if err := m.compare(h); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
			if err := m.compare(h); err != nil {
				t.Fatal(err)
			}
			if err := h.CheckOracleComplete(); err != nil {
				t.Fatal(err)
			}
			for _, oid := range reclaimed {
				if err := absent(h, oid); err != nil {
					t.Fatal(err)
				}
			}
			// The run must have emptied whole table chunks (256 consecutive
			// OIDs), or the lookups above never left a resident chunk.
			occupied := map[objstore.OID]bool{}
			for oid := range m.objects {
				occupied[oid>>8] = true
			}
			released := int(next>>8) - len(occupied)
			t.Logf("%d OIDs, %d objects left, %d reclaimed, %d chunks emptied", next-1, len(m.objects), len(reclaimed), released)
			if released < 2 {
				t.Errorf("churn too gentle: only %d table chunks emptied", released)
			}
		})
	}
}

// store applies one pointer store to the heap and the model.
func store(t *testing.T, h *Heap, m *model, src objstore.OID, slot int, dst objstore.OID, init bool) {
	t.Helper()
	old := m.objects[src].slots[slot]
	if err := h.Overwrite(src, slot, old, dst, init); err != nil {
		t.Fatal(err)
	}
	m.overwrite(src, slot, dst, init)
}
