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
	// them for the fixup ablation, and Check recounts them.
	ext objstore.Table[int32]

	// po[p] counts pointer overwrites whose old target lay in partition p
	// since p was last collected (the paper's FGS state; also drives
	// UPDATEDPOINTER selection). poTotal is their sum.
	po      []int
	poTotal int

	// totalOverwrites is the SAGA clock: every non-initializing pointer
	// overwrite ticks it once.
	totalOverwrites uint64

	// Oracle ledger. An object known unreachable but not yet reclaimed has
	// Dead set in its header, and oracleDead counts those headers;
	// oracleDeadBytes indexes their bytes by partition and garbage is the sum
	// over partitions, sampled at every trace event.
	oracleDead       int
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
	// mutation (alloc, pointer store, root change, reclaim). The heap commits
	// only when its owner (the server engine) calls Commit, so the
	// owner decides batch boundaries and a crash can only lose whole
	// uncommitted batches. staged is whether a record was logged since the
	// last commit.
	durable storage.Backend
	staged  bool

	// scratch holds Collect's per-collection lists, truncated and reused so
	// steady-state collection stops allocating. Valid only within one call of
	// Collect, or of Check, which borrows queue for its trace's stack.
	scratch struct {
		members  []*objstore.Object // the partition's headers, handed to Compact
		queue    []*objstore.Object // partition roots first, then the rest of the live set in copy order
		dead     []*objstore.Object // the members the trace did not reach, ascending
		deadList []objstore.OID
	}
}

// Collect's marks and Check's, kept in the object headers. Outside either
// every header's Mark is zero; Collect tags its partition's members and clears
// every tag before it can fail, so a non-member reads as neither.
const (
	tagged  uint8 = 1 // a member the trace has not reached
	reached uint8 = 2 // a member the trace has reached
	checked uint8 = 3 // reached by Check, whose own value leaves a stray tag visible
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

// Commit commits the durable batch the heap has staged and reports whether it
// sealed one: whether a record was logged since the last successful commit.
// Without a backend it does nothing.
func (h *Heap) Commit() (sealed bool, err error) {
	if h.durable == nil {
		return false, nil
	}
	if err := h.durable.Commit(); err != nil {
		return false, err
	}
	sealed, h.staged = h.staged, false
	return sealed, nil
}

// logged notes the outcome of a Log call: a record it logged is staged.
func (h *Heap) logged(err error) error {
	if err == nil {
		h.staged = true
	}
	return err
}

// adopter is a backend that keeps the heap's object store as its state.
type adopter interface{ Adopt(*objstore.Store) }

// SetPhysicalFixups switches pointer-fixup I/O charging on or off (see the
// physicalFixups field). Used by the fixup-cost ablation benchmark.
func (h *Heap) SetPhysicalFixups(on bool) { h.physicalFixups = on }

// SetOracleless switches the heap into live (oracle-free) operation: no
// RecordOracleDead calls are expected, Collect reclaims whatever tracing
// finds without demanding the oracle knew it first, and CheckOracleComplete
// becomes a no-op. Flip it before the first overwrite; toggling mid-run
// would leave the garbage ledger split between the two accounting schemes.
func (h *Heap) SetOracleless(on bool) { h.oracleless = on }

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
		if err := h.logged(h.durable.LogAlloc(oid, class, size, nslots)); err != nil {
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
		if err := h.logged(h.durable.LogRoot(oid, true)); err != nil {
			return fmt.Errorf("gc: log root %v: %w", oid, err)
		}
	}
	return nil
}

// RemoveRoot unregisters a persistent root, logging the change when a
// durability backend is attached. An absent object is refused before anything
// is logged: recovery could not apply the record.
func (h *Heap) RemoveRoot(oid objstore.OID) error {
	if err := h.store.RemoveRoot(oid); err != nil {
		return err
	}
	if h.durable != nil {
		if err := h.logged(h.durable.LogRoot(oid, false)); err != nil {
			return fmt.Errorf("gc: log unroot %v: %w", oid, err)
		}
	}
	return nil
}

// Access simulates a read of an object.
func (h *Heap) Access(oid objstore.OID) error {
	o := h.store.Get(oid)
	if o == nil {
		return fmt.Errorf("gc: access: %w %v", objstore.ErrAbsent, oid)
	}
	return h.disk.TouchObject(o, false)
}

// Update simulates a non-pointer write to an object.
func (h *Heap) Update(oid objstore.OID) error {
	o := h.store.Get(oid)
	if o == nil {
		return fmt.Errorf("gc: update: %w %v", objstore.ErrAbsent, oid)
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
		return fmt.Errorf("gc: overwrite: %w %v", objstore.ErrAbsent, src)
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
		if err := h.logged(h.durable.LogSet(src, slot, dst)); err != nil {
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

// externalRefs calls fn, in ascending source order, for every pointer slot
// whose target is placed in another partition than its holder: the
// remembered-set entries, derived from the graph. It fails on an object or a
// target without a placement.
func (h *Heap) externalRefs(fn func(p storage.PartitionID, dst, src objstore.OID)) error {
	var err error
	h.store.ForEach(func(o *objstore.Object) {
		if err != nil {
			return
		}
		srcPart, ok := storage.PartOf(o)
		if !ok {
			err = fmt.Errorf("gc: object %v in store but not placed", o.OID)
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
		o := h.store.Get(oid)
		if o == nil {
			return fmt.Errorf("gc: oracle-dead object %v not in store", oid)
		}
		if o.Dead {
			return fmt.Errorf("gc: object %v declared dead twice", oid)
		}
		p, ok := storage.PartOf(o)
		if !ok {
			return fmt.Errorf("gc: oracle-dead object %v has no placement", oid)
		}
		h.markDead(o, p)
	}
	return nil
}

// markDead flags o, placed in partition p, oracle-dead and enters it in the
// ledger.
func (h *Heap) markDead(o *objstore.Object, p storage.PartitionID) {
	o.Dead = true
	h.oracleDead++
	*counterAt(&h.oracleDeadBytes, p) += int(o.Size)
	h.garbage += int(o.Size)
	h.totalGarbage += uint64(o.Size)
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
	h.store.ForEach(func(o *objstore.Object) {
		if o.Dead && h.ext.Get(o.OID) > 0 {
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
		if o.Root || h.ext.Get(o.OID) > 0 {
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
	// tag, before anything below can fail.
	dead := sc.dead[:0]
	deadList := sc.deadList[:0]
	for _, o := range members {
		if o.Mark == tagged {
			dead = append(dead, o)
			deadList = append(deadList, o.OID)
		}
		o.Mark = 0
	}
	sc.dead, sc.deadList = dead, deadList

	// Log the whole reclaim as one WAL record before any object leaves the
	// store: either the commit containing it lands and every reclaimed
	// object stays dead across a crash, or the batch is lost and recovery
	// resurrects none of them piecemeal.
	if h.durable != nil && len(deadList) > 0 {
		if err := h.logged(h.durable.LogReclaim(deadList)); err != nil {
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
		if !o.Dead {
			if !h.oracleless {
				return CollectionResult{}, fmt.Errorf("gc: collector reclaimed %v which the oracle believes live", o.OID)
			}
			h.totalGarbage += uint64(o.Size)
		} else {
			o.Dead = false
			h.oracleDead--
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
	if _, err := h.disk.Compact(p, members, live); err != nil {
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
// verifies at a collection-safe point — in one trace and one sweep.
func (h *Heap) Check() error {
	invariants, complete := h.check()
	return cmp.Or(invariants, complete)
}

// CheckInvariants cross-validates the heap's incremental bookkeeping against
// ground truth recomputed from the store. Expensive; used in tests.
func (h *Heap) CheckInvariants() error { invariants, _ := h.check(); return invariants }

// CheckOracleComplete verifies the converse of CheckInvariants' soundness
// check: every unreachable object is known dead to the oracle. That holds at
// the simulator's collection-safe points, not in hand-built heaps with
// untracked garbage; in oracleless (live) mode it passes vacuously.
func (h *Heap) CheckOracleComplete() error { _, complete := h.check(); return complete }

// check recomputes what the heap keeps incrementally in a trace that marks
// every reachable header checked and a sweep, driven by the manager, that
// reports any other mark and zeroes them all: one Store.Get per non-nil slot.
// It returns the first inconsistency and, apart, the oracle's first miss.
func (h *Heap) check() (invariants, complete error) {
	var err error
	want := make([]int32, 0, h.store.Len()) // references into each target from other partitions
	stack := h.scratch.queue[:0]            // the trace is depth first, on the list Collect queues in
	push := func(o *objstore.Object) {
		if o != nil && o.Mark == 0 {
			o.Mark = checked
			stack = append(stack, o)
		}
	}
	refs := func(o *objstore.Object, trace bool) {
		for _, t := range o.Slots {
			if t.IsNil() {
				continue
			}
			to := h.store.Get(t)
			switch {
			case to == nil || to.PartPlus1 == 0:
				err = cmp.Or(err, fmt.Errorf("gc: object %v references unplaced %v", o.OID, t))
				continue
			case to.PartPlus1 != o.PartPlus1:
				if int(t) >= len(want) {
					want = append(want, make([]int32, int(t)+1-len(want))...)
				}
				want[t]++
			}
			if trace {
				push(to)
			}
		}
	}
	for _, oid := range h.store.Roots() {
		push(h.store.Get(oid))
	}
	for len(stack) > 0 {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		refs(o, true)
	}

	deadBytes := make([]int, h.disk.NumPartitions())
	unreached, oracleSeen := 0, 0
	var sample objstore.OID // the first object whose reachability the oracle has wrong
	sweepErr := h.disk.CheckSweep(func(o *objstore.Object) {
		live := o.Mark == checked
		if !live && o.Mark != 0 {
			err = cmp.Or(err, fmt.Errorf("gc: object %v carries collector mark %d outside a collection", o.OID, o.Mark))
		}
		if o.Mark = 0; o.PartPlus1 == 0 {
			err = cmp.Or(err, fmt.Errorf("gc: object %v in store but not placed", o.OID))
		}
		if !live {
			unreached++
			refs(o, false)
		}
		if o.Dead == live && sample.IsNil() {
			sample = o.OID
		}
		switch p := int(o.PartPlus1) - 1; {
		case !o.Dead:
		case live: // every oracle-dead object must be truly unreachable (soundness)
			err = cmp.Or(err, fmt.Errorf("gc: oracle-dead object %v is reachable", o.OID))
		case p >= 0 && p < len(deadBytes): // else the placement check fails
			deadBytes[p] += int(o.Size)
			oracleSeen++
		}
	})
	if !h.oracleless && unreached != h.oracleDead {
		complete = fmt.Errorf("gc: %d unreachable objects but oracle knows %d (e.g. %v)",
			unreached, h.oracleDead, sample)
	}
	err = cmp.Or(sweepErr, err)
	// Equal counts for every recounted target, and as many targets as stored
	// counts, mean no stored count lacks a recount.
	mismatch := func(dst objstore.OID, _ int32) {
		n := int32(0)
		if int(dst) < len(want) {
			n = want[dst]
		}
		if err == nil && h.ext.Get(dst) != n {
			p, _ := h.disk.PartitionOf(dst)
			err = fmt.Errorf("gc: partition %d remembers %d external references to %v, ground truth %d",
				p, h.ext.Get(dst), dst, n)
		}
	}
	targets := 0
	for dst, n := range want {
		if n != 0 {
			targets++
			mismatch(objstore.OID(dst), n)
		}
	}
	if err == nil && targets != h.ext.Len() {
		h.ext.ForEach(mismatch)
	}
	poSum := 0
	for _, n := range h.po {
		poSum += n
	}
	switch {
	case err != nil:
		return err, complete
	case poSum != h.poTotal:
		return fmt.Errorf("gc: overwrite total %d but partition counters sum to %d", h.poTotal, poSum), complete
	case oracleSeen != h.oracleDead:
		return fmt.Errorf("gc: oracle counts %d dead objects but %d headers are flagged dead", h.oracleDead, oracleSeen), complete
	}
	sum := 0
	for p, dead := range deadBytes {
		got := counter(h.oracleDeadBytes, storage.PartitionID(p))
		if got != dead {
			return fmt.Errorf("gc: oracle garbage bytes %d in partition %d disagree with dead set total %d", got, p, dead), complete
		}
		sum += got
	}
	if sum != h.garbage {
		return fmt.Errorf("gc: garbage total %d but partitions sum to %d", h.garbage, sum), complete
	}
	if h.totalGarbage-h.totalCollected != uint64(sum) {
		return fmt.Errorf("gc: ledger mismatch: created %d - collected %d != outstanding %d",
			h.totalGarbage, h.totalCollected, sum), complete
	}
	return nil, complete
}
