// Package gc implements the partitioned copying garbage collector the paper
// evaluates its rate policies in (the collector of Cook, Wolf, Zorn,
// SIGMOD'94): a Cheney breadth-first copying collector that compacts one
// partition at a time, with per-partition remembered sets so that pointers
// entering a partition from outside act as collection roots.
//
// The package also maintains the two bookkeeping streams the rate policies
// feed on:
//
//   - per-partition pointer-overwrite counters (the paper's fine-grain
//     state, shared with the UPDATEDPOINTER partition-selection policy), and
//   - oracle garbage accounting: the simulator reports exactly which
//     objects each overwrite made unreachable, so "actual garbage" is known
//     at all times. The collector itself never consults the oracle.
package gc

import (
	"cmp"
	"fmt"

	"odbgc/internal/objstore"
	"odbgc/internal/storage"
)

// Heap couples the logical object store with its physical placement and
// carries the collector state: remembered sets, overwrite counters, and the
// oracle garbage ledger.
type Heap struct {
	store *objstore.Store
	disk  *storage.Manager

	// ext[dst] counts the pointer slots, in objects placed outside dst's
	// partition, that reference dst: the remembered sets, reduced to the one
	// question the mutator and the collector ask of them (is this object a
	// partition root?). The (partition, target, source) entries themselves
	// are a function of the graph and the placement; externalRefs derives
	// them for the snapshot, the invariant sweep and the fixup ablation.
	ext objstore.Table[int32]

	// po[p] counts pointer overwrites whose old target lay in partition p
	// since p was last collected (the paper's FGS state; also drives
	// UPDATEDPOINTER selection). poTotal is their sum.
	po      []int
	poTotal int

	// totalOverwrites is the SAGA clock: every non-initializing pointer
	// overwrite ticks it once.
	totalOverwrites uint64

	// Oracle ledger. oracleDead holds objects known unreachable but not yet
	// reclaimed; oracleDeadBytes indexes their bytes by partition and
	// garbage is the sum over partitions, sampled at every trace event.
	oracleDead       objstore.Table[bool]
	oracleDeadBytes  []int
	garbage          int
	totalGarbage     uint64 // cumulative bytes of garbage ever created
	totalCollected   uint64 // cumulative bytes reclaimed by the collector
	totalCollections uint64

	// physicalFixups, when true, charges collector I/O for rewriting every
	// external object whose pointers into a compacted partition must be
	// updated (a physical-pointer store). The default models the common
	// ODBMS design of logical OIDs resolved through a resident object
	// table, where relocation within a partition costs no extra page I/O.
	physicalFixups bool

	// oracleless, when true, runs the heap without the trace oracle: live
	// servers have no replay annotations telling them which overwrite killed
	// which object, so Collect discovers garbage by tracing alone and the
	// cumulative-garbage ledger advances at reclaim time instead of at
	// garbage-creation time. ActualGarbageBytes reports zero in this mode —
	// exactly the paper's online setting, where true garbage is unknowable
	// and the estimators exist to approximate it.
	oracleless bool

	// durable, when non-nil, receives a WAL record for every logical
	// mutation (alloc, pointer store, root change, reclaim). The heap never
	// calls Commit — the owner (server engine, simulator) decides batch
	// boundaries, so a crash can only lose whole uncommitted batches.
	durable storage.Backend

	// scratch holds Collect's per-collection lists, truncated and reused so
	// steady-state collection stops allocating. Valid only within one
	// Collect call.
	scratch struct {
		members  []*objstore.Object // the partition's headers, then its dead
		queue    []*objstore.Object // partition roots first, then the rest of the live set in copy order
		deadList []objstore.OID
	}
}

// Collect's marks, kept in the object headers. Outside a collection every
// header's Mark is zero; Collect tags its partition's members and clears
// every tag before it can fail, so a non-member reads as neither.
const (
	tagged  uint8 = 1 // a member the trace has not reached
	reached uint8 = 2 // a member the trace has reached
)

// NewHeap wraps a store and a storage manager, which from now on keeps its
// placements in the store's object headers. Both must start empty or the
// heap's incremental bookkeeping will not match their contents.
func NewHeap(store *objstore.Store, disk *storage.Manager) *Heap {
	disk.UseStore(store)
	return &Heap{store: store, disk: disk}
}

// counter returns partition p's entry of a partition-indexed counter slice,
// or zero when the slice has not grown that far.
func counter(s []int, p storage.PartitionID) int {
	if p < 0 || int(p) >= len(s) {
		return 0
	}
	return s[p]
}

// counterAt returns the address of partition p's entry, growing the slice to
// reach it. p must be a partition the storage manager knows.
func counterAt(s *[]int, p storage.PartitionID) *int {
	for int(p) >= len(*s) {
		*s = append(*s, 0)
	}
	return &(*s)[p]
}

// Store returns the logical object store.
func (h *Heap) Store() *objstore.Store { return h.store }

// SetDurable attaches a write-ahead-logging backend: from now on every
// logical mutation is logged before the heap reports it done. Attach before
// the first mutation (or right after rebuilding the heap from the backend's
// recovered state) — records are not emitted retroactively. A backend that
// keeps the object graph itself (disk.Store) is handed the heap's store to
// keep instead, so the graph exists once.
func (h *Heap) SetDurable(b storage.Backend) {
	h.durable = b
	if a, ok := b.(adopter); ok {
		a.Adopt(h.store)
	}
}

// adopter is a backend that keeps the heap's object store as its state.
type adopter interface{ Adopt(*objstore.Store) }

// Durable returns the attached durability backend, or nil.
func (h *Heap) Durable() storage.Backend { return h.durable }

// SetPhysicalFixups switches pointer-fixup I/O charging on or off (see the
// physicalFixups field). Used by the fixup-cost ablation benchmark.
func (h *Heap) SetPhysicalFixups(on bool) { h.physicalFixups = on }

// SetOracleless switches the heap into live (oracle-free) operation: no
// RecordOracleDead calls are expected, Collect reclaims whatever tracing
// finds without demanding the oracle knew it first, and CheckOracleComplete
// becomes a no-op. Flip it before the first overwrite; toggling mid-run
// would leave the garbage ledger split between the two accounting schemes.
func (h *Heap) SetOracleless(on bool) { h.oracleless = on }

// Oracleless reports whether the heap runs without the trace oracle.
func (h *Heap) Oracleless() bool { return h.oracleless }

// Disk returns the physical storage manager.
func (h *Heap) Disk() *storage.Manager { return h.disk }

// Create allocates an object logically and physically. A size the storage
// manager refuses is refused before the object enters the store or the log.
func (h *Heap) Create(oid objstore.OID, class objstore.Class, size, nslots int) error {
	if err := h.disk.CheckSize(oid, size); err != nil {
		return err
	}
	o, err := h.store.CreateWithOID(oid, class, size, nslots)
	if err != nil {
		return err
	}
	if h.durable != nil {
		if err := h.durable.LogAlloc(oid, class, size, nslots); err != nil {
			// An object the log refused must not stay in a store a backend
			// may checkpoint. Remove cannot fail: the object was just made.
			_ = h.store.Remove(oid)
			return fmt.Errorf("gc: log alloc %v: %w", oid, err)
		}
	}
	return h.disk.Place(o)
}

// AddRoot registers oid as a persistent root, logging the change when a
// durability backend is attached. Callers that care about crash safety must
// use this rather than Store().AddRoot.
func (h *Heap) AddRoot(oid objstore.OID) error {
	if err := h.store.AddRoot(oid); err != nil {
		return err
	}
	if h.durable != nil {
		if err := h.durable.LogRoot(oid, true); err != nil {
			return fmt.Errorf("gc: log root %v: %w", oid, err)
		}
	}
	return nil
}

// RemoveRoot unregisters a persistent root, logging the change when a
// durability backend is attached.
func (h *Heap) RemoveRoot(oid objstore.OID) error {
	h.store.RemoveRoot(oid)
	if h.durable != nil {
		if err := h.durable.LogRoot(oid, false); err != nil {
			return fmt.Errorf("gc: log unroot %v: %w", oid, err)
		}
	}
	return nil
}

// Access simulates a read of an object.
func (h *Heap) Access(oid objstore.OID) error {
	o := h.store.Get(oid)
	if o == nil {
		return fmt.Errorf("gc: access of absent object %v", oid)
	}
	return h.disk.TouchObject(o, false)
}

// Update simulates a non-pointer write to an object.
func (h *Heap) Update(oid objstore.OID) error {
	o := h.store.Get(oid)
	if o == nil {
		return fmt.Errorf("gc: update of absent object %v", oid)
	}
	return h.disk.TouchObject(o, true)
}

// Overwrite applies a pointer overwrite: slot i of src now points at dst
// (possibly nil). init marks the initializing stores that wire up a freshly
// created object; those maintain the graph and dirty pages but do not count
// as overwrites for the rate policies (they cannot create garbage).
// The recorded old value from the trace is checked against the store.
func (h *Heap) Overwrite(src objstore.OID, slot int, wantOld, dst objstore.OID, init bool) error {
	// Validate the recorded old value before mutating anything, so a
	// corrupt trace cannot leave the slot half-applied.
	o := h.store.Get(src)
	if o == nil {
		return fmt.Errorf("gc: overwrite on absent object %v", src)
	}
	if slot < 0 || slot >= len(o.Slots) {
		return fmt.Errorf("gc: overwrite slot %d out of range on %v", slot, src)
	}
	old := o.Slots[slot]
	if old != wantOld {
		return fmt.Errorf("gc: overwrite %v[%d]: trace says old=%v, store has %v",
			src, slot, wantOld, old)
	}
	srcPart, _ := storage.PartOf(o) // TouchObject refuses an unplaced source
	dstPart, ok := h.disk.PartitionOf(dst)
	if !ok && !dst.IsNil() {
		return fmt.Errorf("gc: new target %v has no placement", dst)
	}
	o.Slots[slot] = dst
	if h.durable != nil {
		if err := h.durable.LogSet(src, slot, dst); err != nil {
			return fmt.Errorf("gc: log set %v[%d]: %w", src, slot, err)
		}
	}
	if err := h.disk.TouchObject(o, true); err != nil {
		return err
	}
	if !old.IsNil() {
		oldPart, ok := h.disk.PartitionOf(old)
		if !ok {
			return fmt.Errorf("gc: old target %v has no placement", old)
		}
		if oldPart != srcPart {
			if err := h.forget(oldPart, old, src); err != nil {
				return err
			}
		}
		if !init {
			*counterAt(&h.po, oldPart)++
			h.poTotal++
		}
	}
	if !dst.IsNil() && dstPart != srcPart {
		h.ext.Set(dst, h.ext.Get(dst)+1)
	}
	if !init {
		h.totalOverwrites++
	}
	return nil
}

// forget drops one remembered reference, held by src, to dst in partition p.
// Asked to drop one that was never recorded it fails on the spot: the count
// is already wrong, and the final sweep would only say so much later.
func (h *Heap) forget(p storage.PartitionID, dst, src objstore.OID) error {
	n := h.ext.Get(dst)
	if n <= 0 {
		return fmt.Errorf("gc: remembered-set underflow in partition %d: no external reference to %v is recorded, yet %v drops one", p, dst, src)
	}
	h.ext.Set(dst, n-1)
	return nil
}

// ExternallyReferenced reports whether dst (in partition p) has remembered
// external references.
func (h *Heap) ExternallyReferenced(p storage.PartitionID, dst objstore.OID) bool {
	part, ok := h.disk.PartitionOf(dst)
	return ok && part == p && h.ext.Get(dst) > 0
}

// externalRefs calls fn, in ascending source order, for every pointer slot
// whose target is placed in another partition than its holder: the
// remembered-set entries, derived from the graph. It fails on an object or a
// target without a placement, and on a header carrying a collector mark,
// which only a collection in progress may set.
func (h *Heap) externalRefs(fn func(p storage.PartitionID, dst, src objstore.OID)) error {
	var err error
	h.store.ForEach(func(o *objstore.Object) {
		if err != nil {
			return
		}
		srcPart, ok := storage.PartOf(o)
		switch {
		case !ok:
			err = fmt.Errorf("gc: object %v in store but not placed", o.OID)
			return
		case o.Mark != 0:
			err = fmt.Errorf("gc: object %v carries collector mark %d outside a collection", o.OID, o.Mark)
			return
		}
		for _, t := range o.Slots {
			if t.IsNil() {
				continue
			}
			tPart, ok := h.disk.PartitionOf(t)
			if !ok {
				err = fmt.Errorf("gc: object %v references unplaced %v", o.OID, t)
				return
			}
			if tPart != srcPart {
				fn(tPart, t, o.OID)
			}
		}
	})
	return err
}

// RecordOracleDead registers objects the trace oracle declared unreachable.
// The collector will eventually rediscover and reclaim them by tracing.
func (h *Heap) RecordOracleDead(dead []objstore.OID) error {
	for _, oid := range dead {
		if h.oracleDead.Get(oid) {
			return fmt.Errorf("gc: object %v declared dead twice", oid)
		}
		o := h.store.Get(oid)
		if o == nil {
			return fmt.Errorf("gc: oracle-dead object %v not in store", oid)
		}
		p, ok := storage.PartOf(o)
		if !ok {
			return fmt.Errorf("gc: oracle-dead object %v has no placement", oid)
		}
		h.oracleDead.Set(oid, true)
		*counterAt(&h.oracleDeadBytes, p) += int(o.Size)
		h.garbage += int(o.Size)
		h.totalGarbage += uint64(o.Size)
	}
	return nil
}

// ActualGarbageBytes returns the oracle's exact count of unreclaimed
// garbage bytes in the database.
func (h *Heap) ActualGarbageBytes() int { return h.garbage }

// OracleGarbageIn returns the exact garbage bytes in one partition.
func (h *Heap) OracleGarbageIn(p storage.PartitionID) int { return counter(h.oracleDeadBytes, p) }

// PinnedGarbageBytes returns the bytes of known garbage that the collector
// could not reclaim right now even if it collected the right partition:
// dead objects held live by remembered-set entries (references from other
// partitions, themselves possibly dead). This quantifies partitioned
// collection's conservatism — cross-partition dead chains release one
// segment per collection, and dead cross-partition cycles never release.
func (h *Heap) PinnedGarbageBytes() int {
	pinned := 0
	h.oracleDead.ForEach(func(oid objstore.OID, _ bool) {
		if o := h.store.Get(oid); o != nil && h.ext.Get(oid) > 0 {
			pinned += int(o.Size)
		}
	})
	return pinned
}

// TotalGarbageBytes returns cumulative garbage ever created (oracle).
func (h *Heap) TotalGarbageBytes() uint64 { return h.totalGarbage }

// TotalCollectedBytes returns cumulative bytes reclaimed by the collector.
func (h *Heap) TotalCollectedBytes() uint64 { return h.totalCollected }

// Collections returns how many collections have run.
func (h *Heap) Collections() uint64 { return h.totalCollections }

// OverwriteClock returns the SAGA time base: total non-init overwrites.
func (h *Heap) OverwriteClock() uint64 { return h.totalOverwrites }

// PartitionOverwrites returns the FGS counter of one partition.
func (h *Heap) PartitionOverwrites(p storage.PartitionID) int { return counter(h.po, p) }

// SumPartitionOverwrites returns Σ_p PO(p), the FGS state total.
func (h *Heap) SumPartitionOverwrites() int { return h.poTotal }

// DatabaseBytes returns occupied bytes (live + garbage): the SAGA notion of
// database size.
func (h *Heap) DatabaseBytes() int { return h.disk.OccupiedBytes() }

// NumPartitions returns the number of allocated partitions (the CGS/CB
// estimator's coarse-grain state).
func (h *Heap) NumPartitions() int { return h.disk.NumPartitions() }

// CollectionResult describes one collection.
type CollectionResult struct {
	Partition        storage.PartitionID
	PartitionPO      int // FGS counter of the partition at collection time
	ReclaimedBytes   int
	ReclaimedObjects int
	LiveBytes        int
	LiveObjects      int
	IO               storage.IOStats // I/O delta attributable to this collection
}

// Collect garbage-collects one partition: scan, Cheney copy from the
// partition roots (database roots plus remembered external references),
// compact survivors, fix external pointers, and flush collector-dirtied
// pages. All I/O is charged to the collector.
func (h *Heap) Collect(p storage.PartitionID) (CollectionResult, error) {
	if p < 0 || int(p) >= h.disk.NumPartitions() {
		return CollectionResult{}, fmt.Errorf("gc: collect of unknown partition %d", p)
	}
	before := h.disk.Stats()
	prevClass := h.disk.SetIOClass(storage.IOGC)
	defer h.disk.SetIOClass(prevClass)

	// Scan the partition.
	if err := h.disk.ReadPartition(p); err != nil {
		return CollectionResult{}, err
	}

	// The lists below live in the reusable scratch. members is ascending,
	// and so is everything filtered from it. Each member's header is looked
	// up once, here; the rest of the collection works on the headers.
	sc := &h.scratch
	members, err := h.disk.AppendMembers(sc.members[:0], p)
	sc.members = members
	if err != nil {
		return CollectionResult{}, fmt.Errorf("gc: %w", err)
	}

	// Tag the members. Partition roots — database roots and externally
	// referenced objects — are reached from the start: they seed the
	// traversal queue, and live objects are appended behind them.
	queue := sc.queue[:0]
	for _, o := range members {
		if h.store.IsRoot(o.OID) || h.ext.Get(o.OID) > 0 {
			o.Mark = reached
			queue = append(queue, o)
		} else {
			o.Mark = tagged
		}
	}

	// Cheney breadth-first copy within the partition. The queue, once
	// drained, is the live list in copy order; pointers leaving the
	// partition are not traversed (their targets carry no tag).
	liveBytes := 0
	for head := 0; head < len(queue); head++ {
		o := queue[head]
		liveBytes += int(o.Size)
		for _, t := range o.Slots {
			if t.IsNil() {
				continue
			}
			if to := h.store.Get(t); to != nil && to.Mark == tagged {
				to.Mark = reached
				queue = append(queue, to)
			}
		}
	}
	sc.queue = queue
	live := queue

	// Everything unreached is garbage. The pass that lists it clears every
	// tag, before anything below can fail. The dead headers take members'
	// place in the scratch.
	dead := members[:0]
	deadList := sc.deadList[:0]
	for _, o := range members {
		if o.Mark == tagged {
			dead = append(dead, o)
			deadList = append(deadList, o.OID)
		}
		o.Mark = 0
	}
	sc.deadList = deadList

	// Log the whole reclaim as one WAL record before any object leaves the
	// store: either the commit containing it lands and every reclaimed
	// object stays dead across a crash, or the batch is lost and recovery
	// resurrects none of them piecemeal.
	if h.durable != nil && len(deadList) > 0 {
		if err := h.durable.LogReclaim(deadList); err != nil {
			return CollectionResult{}, fmt.Errorf("gc: log reclaim of %d objects: %w", len(deadList), err)
		}
	}

	// Tear down the dead objects' bookkeeping and remove them from the store
	// before compaction, which then keeps what is left.
	reclaimedBytes := 0
	for _, o := range dead {
		reclaimedBytes += int(o.Size)
		// A dead object's outgoing cross-partition references leave the
		// remembered sets, which may unpin garbage in other partitions.
		for _, t := range o.Slots {
			if t.IsNil() {
				continue
			}
			tp, ok := h.disk.PartitionOf(t)
			if !ok {
				return CollectionResult{}, fmt.Errorf("gc: dead object %v references unplaced %v", o.OID, t)
			}
			if tp != p {
				if err := h.forget(tp, t, o.OID); err != nil {
					return CollectionResult{}, err
				}
			}
		}
		// The oracle must have known: partitioned tracing is conservative
		// with respect to true reachability. In oracleless (live) mode the
		// collector is the discoverer: garbage enters the cumulative ledger
		// the moment it is reclaimed, keeping created−collected==outstanding.
		if !h.oracleDead.Get(o.OID) {
			if !h.oracleless {
				return CollectionResult{}, fmt.Errorf("gc: collector reclaimed %v which the oracle believes live", o.OID)
			}
			h.totalGarbage += uint64(o.Size)
		} else {
			h.oracleDead.Set(o.OID, false)
			*counterAt(&h.oracleDeadBytes, p) -= int(o.Size)
			h.garbage -= int(o.Size)
		}
	}
	if counter(h.oracleDeadBytes, p) < 0 {
		return CollectionResult{}, fmt.Errorf("gc: negative oracle garbage in partition %d", p)
	}
	// Every dead object's slots are read: the targets' headers may go.
	for _, oid := range deadList {
		if err := h.store.Remove(oid); err != nil {
			return CollectionResult{}, err
		}
	}

	// Compact survivors in copy order.
	if _, err := h.disk.Compact(p, live); err != nil {
		return CollectionResult{}, err
	}

	// Surviving objects moved. With physical pointers, every external
	// referencing object must be rewritten; with logical OIDs (the
	// default), only the resident object table changes, at no I/O cost.
	if h.physicalFixups {
		if err := h.fixExternalPointers(p); err != nil {
			return CollectionResult{}, err
		}
	}

	// Write back what the collector dirtied.
	h.disk.FlushGCDirty()

	po := counter(h.po, p)
	if po != 0 {
		h.po[p] = 0
		h.poTotal -= po
	}
	h.totalCollected += uint64(reclaimedBytes)
	h.totalCollections++

	return CollectionResult{
		Partition:        p,
		PartitionPO:      po,
		ReclaimedBytes:   reclaimedBytes,
		ReclaimedObjects: len(deadList),
		LiveBytes:        liveBytes,
		LiveObjects:      len(live),
		IO:               h.disk.Stats().Sub(before),
	}, nil
}

// fixExternalPointers rewrites, in ascending OID order, every object outside
// partition p that holds a pointer into it.
func (h *Heap) fixExternalPointers(p storage.PartitionID) error {
	var touchErr error
	var last objstore.OID
	err := h.externalRefs(func(part storage.PartitionID, _, src objstore.OID) {
		if part != p || src == last || touchErr != nil {
			return
		}
		last = src
		touchErr = h.disk.Touch(src, true)
	})
	return cmp.Or(touchErr, err)
}

// Check runs CheckInvariants and CheckOracleComplete — what the simulator
// verifies at a collection-safe point — over one build of the reachable set.
func (h *Heap) Check() error {
	live := h.store.Reachable()
	if err := h.checkInvariants(live); err != nil {
		return err
	}
	return h.checkOracleComplete(live)
}

// CheckInvariants cross-validates the heap's incremental bookkeeping against
// ground truth recomputed from the store. Expensive; used in tests.
func (h *Heap) CheckInvariants() error { return h.checkInvariants(h.store.Reachable()) }

func (h *Heap) checkInvariants(live *objstore.Table[bool]) error {
	if err := h.disk.CheckInvariants(); err != nil {
		return err
	}
	// Recount the remembered external references from the graph and compare.
	var want objstore.Table[int32]
	if err := h.externalRefs(func(_ storage.PartitionID, dst, _ objstore.OID) {
		want.Set(dst, want.Get(dst)+1)
	}); err != nil {
		return err
	}
	var err error
	mismatch := func(dst objstore.OID, _ int32) {
		if err == nil && h.ext.Get(dst) != want.Get(dst) {
			p, _ := h.disk.PartitionOf(dst)
			err = fmt.Errorf("gc: partition %d remembers %d external references to %v, ground truth %d",
				p, h.ext.Get(dst), dst, want.Get(dst))
		}
	}
	want.ForEach(mismatch)
	h.ext.ForEach(mismatch)
	if err != nil {
		return err
	}
	// Every stored total is the sum of its parts.
	poSum := 0
	for _, n := range h.po {
		poSum += n
	}
	if poSum != h.poTotal {
		return fmt.Errorf("gc: overwrite total %d but partition counters sum to %d", h.poTotal, poSum)
	}
	// Oracle ledger consistency, partition by partition.
	//lint:allow hotpath validation sweep: one count array per call
	deadBytes := make([]int, h.disk.NumPartitions())
	h.oracleDead.ForEach(func(oid objstore.OID, _ bool) {
		if err != nil {
			return
		}
		o := h.store.Get(oid)
		p, placed := h.disk.PartitionOf(oid)
		switch {
		case o == nil || !placed:
			err = fmt.Errorf("gc: oracle-dead object %v missing from store", oid)
		case live.Get(oid):
			// Every oracle-dead object must be truly unreachable (soundness).
			err = fmt.Errorf("gc: oracle-dead object %v is reachable", oid)
		default:
			deadBytes[p] += int(o.Size)
		}
	})
	if err != nil {
		return err
	}
	sum := 0
	for p, want := range deadBytes {
		got := counter(h.oracleDeadBytes, storage.PartitionID(p))
		if got != want {
			return fmt.Errorf("gc: oracle garbage bytes %d in partition %d disagree with dead set total %d", got, p, want)
		}
		sum += got
	}
	if sum != h.garbage {
		return fmt.Errorf("gc: garbage total %d but partitions sum to %d", h.garbage, sum)
	}
	if h.totalGarbage-h.totalCollected != uint64(sum) {
		return fmt.Errorf("gc: ledger mismatch: created %d - collected %d != outstanding %d",
			h.totalGarbage, h.totalCollected, sum)
	}
	return nil
}

// CheckOracleComplete verifies the converse of CheckInvariants' soundness
// check: every unreachable object is known dead to the oracle. This holds
// at the simulator's collection-safe points when replaying a well-formed
// trace, but not in hand-built heaps with untracked garbage — and not in
// oracleless (live) mode, where unreclaimed garbage is by design unknown;
// there the check passes vacuously.
func (h *Heap) CheckOracleComplete() error { return h.checkOracleComplete(h.store.Reachable()) }

func (h *Heap) checkOracleComplete(live *objstore.Table[bool]) error {
	if h.oracleless {
		return nil
	}
	if dead := h.store.Len() - live.Len(); dead != h.oracleDead.Len() {
		var sample objstore.OID
		h.store.ForEach(func(o *objstore.Object) {
			if !live.Get(o.OID) {
				sample = o.OID
			}
		})
		return fmt.Errorf("gc: %d unreachable objects but oracle knows %d (e.g. %v)",
			dead, h.oracleDead.Len(), sample)
	}
	return nil
}
