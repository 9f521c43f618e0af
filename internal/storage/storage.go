// Package storage models the physical layer of the simulated object
// database: fixed-size pages grouped into fixed-size partitions, a bump
// allocator with page-granular placement, an LRU buffer pool, and I/O
// accounting that distinguishes application I/O from garbage-collector I/O.
//
// Following the paper (§3.1):
//   - partitions are 12 pages of 8 KB (96 KB) by default;
//   - the buffer pool is sized to exactly one partition;
//   - lack of free space never triggers a collection — a new partition is
//     appended instead;
//   - the collector compacts a partition in place, so objects never move
//     between partitions.
package storage

import (
	"fmt"
	"math"
	"slices"

	"odbgc/internal/objstore"
)

// Config sets the physical geometry. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	PageSize          int // bytes per page
	PagesPerPartition int // pages per partition
	BufferPages       int // buffer pool capacity in pages
}

// DefaultConfig is the geometry used throughout the paper: 8 KB pages,
// 12-page (96 KB) partitions, and a buffer equal to one partition.
func DefaultConfig() Config {
	return Config{PageSize: 8192, PagesPerPartition: 12, BufferPages: 12}
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.PageSize <= 0 {
		return fmt.Errorf("storage: PageSize %d must be positive", c.PageSize)
	}
	if c.PagesPerPartition <= 0 {
		return fmt.Errorf("storage: PagesPerPartition %d must be positive", c.PagesPerPartition)
	}
	if c.BufferPages <= 0 {
		return fmt.Errorf("storage: BufferPages %d must be positive", c.BufferPages)
	}
	// An object header keeps its offset in the partition in 32 bits.
	if c.PageSize > math.MaxInt32/c.PagesPerPartition {
		return fmt.Errorf("storage: partition of %d pages of %d bytes exceeds 2 GiB", c.PagesPerPartition, c.PageSize)
	}
	return nil
}

// PartitionBytes returns the capacity of one partition.
func (c Config) PartitionBytes() int { return c.PageSize * c.PagesPerPartition }

// PartitionID identifies a partition. Partitions are never deallocated.
type PartitionID int

// PageID identifies one page of one partition.
type PageID struct {
	Part  PartitionID
	Index int
}

func (p PageID) String() string { return fmt.Sprintf("p%d/%d", p.Part, p.Index) }

var noPage = PageID{Part: -1}

// Placement records where an object lives on disk.
type Placement struct {
	Part   PartitionID
	Page   int // page index within the partition
	Offset int // byte offset within the partition
	Size   int
}

// IOClass attributes I/O operations to the application or the collector.
type IOClass int

// I/O attribution classes.
const (
	IOApp IOClass = iota
	IOGC
)

// IOStats counts page reads and writes by attribution class. Its JSON names
// are the event log's (obs).
type IOStats struct {
	AppReads  uint64 `json:"app_reads"`
	AppWrites uint64 `json:"app_writes"`
	GCReads   uint64 `json:"gc_reads"`
	GCWrites  uint64 `json:"gc_writes"`
}

// AppIO returns total application I/O operations (reads + writes).
func (s IOStats) AppIO() uint64 { return s.AppReads + s.AppWrites }

// GCIO returns total collector I/O operations (reads + writes).
func (s IOStats) GCIO() uint64 { return s.GCReads + s.GCWrites }

// TotalIO returns all I/O operations.
func (s IOStats) TotalIO() uint64 { return s.AppIO() + s.GCIO() }

// Sub returns s - t field-wise; useful for per-interval deltas.
func (s IOStats) Sub(t IOStats) IOStats {
	return IOStats{
		AppReads:  s.AppReads - t.AppReads,
		AppWrites: s.AppWrites - t.AppWrites,
		GCReads:   s.GCReads - t.GCReads,
		GCWrites:  s.GCWrites - t.GCWrites,
	}
}

// partition is the manager's internal per-partition state.
type partition struct {
	id      PartitionID
	cursor  int            // bump-allocation offset in bytes; only compaction lowers it
	page    int            // a page holding the cursor (at a boundary, either), so placing divides nothing
	used    int            // sum of sizes of objects placed here (live + garbage)
	objects []objstore.OID // the objects placed here, ascending
}

// add enters oid in the member list. OIDs are handed out in increasing order,
// so the append is the whole cost unless a caller places one out of order.
func (p *partition) add(oid objstore.OID) {
	if n := len(p.objects); n == 0 || p.objects[n-1] < oid {
		p.objects = append(p.objects, oid)
		return
	}
	i, _ := slices.BinarySearch(p.objects, oid)
	p.objects = slices.Insert(p.objects, i, oid)
}

// usedPages returns how many pages the bump cursor has touched.
func (p *partition) usedPages(pageSize int) int {
	return (p.cursor + pageSize - 1) / pageSize
}

// PartOf returns the partition holding o, read from its header; the second
// result is false while o is unplaced.
func PartOf(o *objstore.Object) (PartitionID, bool) {
	return PartitionID(o.PartPlus1 - 1), o.PartPlus1 != 0
}

// Manager owns the partitions and the buffer pool. It is the single point
// through which the simulator performs physical operations, so all I/O
// accounting happens here. Placements live in the headers of its object
// store: the heap's, or for a manager no heap runs on a store of its own.
type Manager struct {
	cfg      Config
	parts    []*partition
	store    *objstore.Store
	occupied int // sum of every partition's used bytes
	buf      *BufferPool
	stats    IOStats
	class    IOClass

	allocPart PartitionID // current allocation target

	// placed is the page Place pinned last, while pinning it again would
	// change nothing: it is the pool's dirty front frame, same I/O class.
	placed PageID
}

// NewManager returns a Manager with no partitions yet, on a store of its own.
func NewManager(cfg Config) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	buf, err := NewBufferPool(cfg.BufferPages)
	if err != nil {
		return nil, err
	}
	return &Manager{cfg: cfg, buf: buf, store: objstore.NewStore(), placed: noPage}, nil
}

// UseStore moves the manager, which must hold nothing yet, onto st.
func (m *Manager) UseStore(st *objstore.Store) { m.store = st }

// Config returns the geometry.
func (m *Manager) Config() Config { return m.cfg }

// Stats returns a copy of the I/O counters.
func (m *Manager) Stats() IOStats { return m.stats }

// SetIOClass switches I/O attribution and returns the previous class.
func (m *Manager) SetIOClass(c IOClass) IOClass {
	prev := m.class
	m.class, m.placed = c, noPage
	return prev
}

// NumPartitions returns the number of allocated partitions.
func (m *Manager) NumPartitions() int { return len(m.parts) }

// OccupiedBytes returns the total bytes of objects placed across all
// partitions (live + garbage). This is the SAGA notion of database size.
func (m *Manager) OccupiedBytes() int { return m.occupied }

// PartitionOf returns the partition holding an object. The second result is
// false if the object has no placement.
func (m *Manager) PartitionOf(oid objstore.OID) (PartitionID, bool) {
	if o := m.store.Get(oid); o != nil {
		return PartOf(o)
	}
	return 0, false
}

// PlacementOf returns the full placement of an object.
func (m *Manager) PlacementOf(oid objstore.OID) (Placement, bool) {
	if o := m.store.Get(oid); o != nil && o.PartPlus1 != 0 {
		return m.placement(o), true
	}
	return Placement{}, false
}

func (m *Manager) placement(o *objstore.Object) Placement {
	return Placement{
		Part:   PartitionID(o.PartPlus1 - 1),
		Page:   int(o.Offset) / m.cfg.PageSize,
		Offset: int(o.Offset),
		Size:   int(o.Size),
	}
}

// AppendMembers appends the headers of the objects placed in a partition to
// dst, in ascending OID order, and returns the extended slice. A listed
// object missing from the store is an error: its owner removed it without
// compacting the partition.
func (m *Manager) AppendMembers(dst []*objstore.Object, id PartitionID) ([]*objstore.Object, error) {
	if int(id) < 0 || int(id) >= len(m.parts) {
		return dst, nil
	}
	objects := m.parts[id].objects
	dst = slices.Grow(dst, len(objects))
	for _, oid := range objects {
		o := m.store.Get(oid)
		if o == nil {
			return dst, fmt.Errorf("storage: partition %d lists %v, which is not in the store", id, oid)
		}
		dst = append(dst, o)
	}
	return dst, nil
}

// charge records one read or write against the current I/O class.
func (m *Manager) charge(read bool) {
	switch {
	case read && m.class == IOApp:
		m.stats.AppReads++
	case read && m.class == IOGC:
		m.stats.GCReads++
	case !read && m.class == IOApp:
		m.stats.AppWrites++
	default:
		m.stats.GCWrites++
	}
}

// pin brings a page into the buffer, charging a read on a miss (unless the
// page is fresh, i.e. has no disk image yet) and a write when a dirty
// victim is evicted. If dirty is true the page is marked dirty, and under
// the IOGC class flagged on its frame as collector-dirtied, so the collector
// can flush exactly what it wrote at the end of a collection; the flag goes
// when the page is cleaned, dropped, or evicted by whichever class (it is
// then clean on disk and no longer GC-pending).
func (m *Manager) pin(pg PageID, dirty, fresh bool) {
	m.placed = noPage
	res := m.buf.pin(pg, dirty, fresh, m.class == IOGC)
	if res.ReadFault {
		m.charge(true)
	}
	if res.WroteBack {
		m.charge(false)
	}
}

// newPartition appends an empty partition whose member list has room for as
// many objects as the last one lists: partitions fill to about the same
// count, so a growing database sizes each list once instead of doubling it
// from empty.
func (m *Manager) newPartition() *partition {
	p := &partition{id: PartitionID(len(m.parts))}
	if n := len(m.parts); n > 0 && len(m.parts[n-1].objects) > 0 {
		p.objects = make([]objstore.OID, 0, len(m.parts[n-1].objects))
	}
	m.parts = append(m.parts, p)
	return p
}

// next returns where in p an object of the given size would be bump-allocated
// and on which page (past the cursor's page when the rest of it is too short:
// objects never span pages), and whether that fits in the partition.
func (m *Manager) next(p *partition, size int) (off, page int, fits bool) {
	off, page = p.cursor, p.page
	if end := (page + 1) * m.cfg.PageSize; size > end-off {
		off, page = end, page+1
	}
	return off, page, off+size <= m.cfg.PartitionBytes()
}

// CheckSize returns Place's refusal of an object of size bytes, if any: one
// larger than a page must be split (the OO7 manual is a chain of pages).
func (m *Manager) CheckSize(oid objstore.OID, size int) error {
	if size <= 0 {
		return fmt.Errorf("storage: allocate %v with size %d", oid, size)
	}
	if size > m.cfg.PageSize {
		return fmt.Errorf("storage: object %v size %d exceeds page size %d", oid, size, m.cfg.PageSize)
	}
	return nil
}

// Allocate places a new object, entering a bare header for it in the
// manager's store unless the store holds one already.
func (m *Manager) Allocate(oid objstore.OID, size int) (Placement, error) {
	o, err := m.store.Get(oid), m.CheckSize(oid, size)
	switch {
	case err != nil:
	case o == nil:
		o, err = m.store.CreateWithOID(oid, objstore.ClassUnknown, size, 0)
	case o.PartPlus1 != 0:
		err = fmt.Errorf("storage: object %v already placed", oid)
	}
	if err == nil {
		err = m.Place(o)
	}
	if err != nil {
		return Placement{}, err
	}
	return m.placement(o), nil
}

// Place places o, an object of the manager's store, over any placement its
// header carries from a manager that ran on the store before (gc.Heap.Load
// takes a recovered store over so). Lack of space grows the database by one
// partition; it never triggers collection.
func (m *Manager) Place(o *objstore.Object) error {
	size := int(o.Size)
	if err := m.CheckSize(o.OID, size); err != nil {
		return err
	}

	var target *partition
	var off, page int
	fits := false
	if len(m.parts) > 0 {
		target = m.parts[m.allocPart]
		off, page, fits = m.next(target, size)
	}
	for i := 0; !fits && i < len(m.parts); i++ {
		target = m.parts[i]
		off, page, fits = m.next(target, size)
	}
	if !fits {
		target, off, page = m.newPartition(), 0, 0
	}
	m.allocPart = target.id
	fresh := off == page*m.cfg.PageSize // first object on the page: no disk image yet
	target.cursor, target.page = off+size, page
	target.used += size
	m.occupied += size
	target.add(o.OID)
	o.PartPlus1, o.Offset = int32(target.id)+1, int32(off)

	if pg := (PageID{target.id, page}); pg != m.placed {
		m.pin(pg, true, fresh)
		m.placed = pg
	}
	return nil
}

// Touch simulates an access to an object: its page is faulted in if absent
// and marked dirty if write is true.
func (m *Manager) Touch(oid objstore.OID, write bool) error {
	if o := m.store.Get(oid); o != nil {
		return m.TouchObject(o, write)
	}
	return fmt.Errorf("storage: touch of unplaced object %v", oid)
}

// TouchObject is Touch for a caller that holds the object's header.
func (m *Manager) TouchObject(o *objstore.Object, write bool) error {
	if o.PartPlus1 == 0 {
		return fmt.Errorf("storage: touch of unplaced object %v", o.OID)
	}
	m.pin(PageID{PartitionID(o.PartPlus1 - 1), int(o.Offset) / m.cfg.PageSize}, write, false)
	return nil
}

// ReadPartition faults in every used page of a partition, as the collector
// does when scanning. Pages already buffered cost nothing.
func (m *Manager) ReadPartition(id PartitionID) error {
	if int(id) < 0 || int(id) >= len(m.parts) {
		return fmt.Errorf("storage: read of unknown partition %d", id)
	}
	p := m.parts[id]
	for i := 0; i < p.usedPages(m.cfg.PageSize); i++ {
		m.pin(PageID{id, i}, false, false)
	}
	return nil
}

// CompactResult reports the outcome of a partition compaction.
type CompactResult struct {
	ReclaimedBytes   int
	ReclaimedObjects int
	LivePages        int // pages occupied after compaction
}

// Compact rewrites a partition so that exactly the objects in live remain,
// packed from the start of the partition in the given order (the caller
// supplies Cheney copy order). members must be the partition's headers as
// AppendMembers returned them, and every object in live a header of the
// manager's store placed in the partition. The other members are reclaimed,
// read from their headers, not looked up: one its owner removed from the store
// is unplaced already (gc.Heap removes its dead before it compacts), and one
// still placed here is unplaced and removed.
//
// I/O: the caller is expected to have scanned the partition already (see
// ReadPartition); Compact marks the surviving pages dirty and drops stale
// pages beyond the new live region from the buffer without write-back.
func (m *Manager) Compact(id PartitionID, members, live []*objstore.Object) (CompactResult, error) {
	if int(id) < 0 || int(id) >= len(m.parts) {
		return CompactResult{}, fmt.Errorf("storage: compact of unknown partition %d", id)
	}
	p := m.parts[id]
	// Claim each survivor by negating its partition field, which the pass
	// over the members restores: an object listed twice is found claimed, and
	// a member found unclaimed is not live. Every refusal releases the claims.
	liveBytes := 0
	for i, o := range live {
		if o.PartPlus1 != int32(id)+1 {
			release(live[:i])
			if o.PartPlus1 == -int32(id)-1 {
				return CompactResult{}, fmt.Errorf("storage: duplicate live object %v", o.OID)
			}
			return CompactResult{}, fmt.Errorf("storage: live object %v not placed in partition %d", o.OID, id)
		}
		o.PartPlus1 = -o.PartPlus1
		liveBytes += int(o.Size)
	}
	same := len(members) == len(p.objects)
	for i := 0; same && i < len(members); i++ {
		same = members[i].OID == p.objects[i]
	}
	if !same {
		release(live)
		return CompactResult{}, fmt.Errorf("storage: compact of partition %d given other members than the %d it lists", id, len(p.objects))
	}
	// Pack the survivors in copy order for reference locality. Copy order
	// can pad page boundaries differently than the original layout and —
	// rarely, in a nearly full partition — overflow it; in that case pack a
	// copy sorted by original offset instead, which can only shrink every
	// offset and therefore always fits objects of unchanged size.
	order := live
	if _, fits := m.layout(order, false); !fits {
		order = slices.Clone(live)
		slices.SortFunc(order, func(a, b *objstore.Object) int { return int(a.Offset) - int(b.Offset) })
		if _, fits := m.layout(order, false); !fits {
			release(live)
			return CompactResult{}, fmt.Errorf("storage: compaction of partition %d overflowed its %d bytes",
				id, m.cfg.PartitionBytes())
		}
	}
	end, _ := m.layout(order, true)

	// Keep the claimed members, in ascending order; reclaim the rest.
	res := CompactResult{ReclaimedBytes: p.used - liveBytes}
	oldPages := p.usedPages(m.cfg.PageSize)
	kept := p.objects[:0]
	for _, o := range members {
		switch {
		case o.PartPlus1 < 0: // claimed
			o.PartPlus1 = -o.PartPlus1
			kept = append(kept, o.OID)
			continue
		case o.PartPlus1 == 0: // removed by its owner
		default: // still placed here
			_ = m.store.Remove(o.OID) // cannot fail: the object is present; unplaces it
		}
		res.ReclaimedObjects++
	}
	p.objects = kept
	p.used = liveBytes
	m.occupied -= res.ReclaimedBytes
	p.cursor, p.page = end, end/m.cfg.PageSize

	res.LivePages = p.usedPages(m.cfg.PageSize)
	// Surviving pages now hold the compacted image: dirty them. They are
	// fresh in the sense that their old disk image is obsolete, so a buffer
	// miss must not charge a read.
	for i := 0; i < res.LivePages; i++ {
		m.pin(PageID{id, i}, true, true)
	}
	// Pages beyond the live region are free space; drop any buffered copies
	// without write-back.
	m.placed = noPage
	for i := res.LivePages; i < oldPages; i++ {
		m.buf.Drop(PageID{id, i})
	}
	return res, nil
}

// release undoes Compact's claims on objs.
func release(objs []*objstore.Object) {
	for _, o := range objs {
		o.PartPlus1 = -o.PartPlus1
	}
}

// layout packs objs in order and, if write is true, sets their new offsets.
// Objects never span pages; the page end is carried along, so no offset is
// divided. It returns the end of the packed region, or false at the first
// object past the partition's end.
func (m *Manager) layout(objs []*objstore.Object, write bool) (int, bool) {
	cursor, pageEnd := 0, m.cfg.PageSize
	for _, o := range objs {
		if cursor+int(o.Size) > pageEnd {
			if pageEnd == m.cfg.PartitionBytes() {
				return cursor, false
			}
			cursor, pageEnd = pageEnd, pageEnd+m.cfg.PageSize
		}
		if write {
			o.Offset = int32(cursor)
		}
		cursor += int(o.Size)
	}
	return cursor, true
}

// FlushGCDirty writes back every page dirtied under the IOGC class that is
// still buffered and dirty, charging the writes to the collector. The
// collector calls this at the end of a collection so its write cost is
// attributed to it rather than to later application evictions.
func (m *Manager) FlushGCDirty() int {
	n := m.buf.cleanGC()
	m.placed = noPage
	m.stats.GCWrites += uint64(n)
	return n
}

// CheckInvariants validates internal consistency; used by tests and the
// simulator's self-check mode. It verifies that placements and partition
// member lists agree, that used byte counts match, and that the stored
// database total is the sum of its parts.
func (m *Manager) CheckInvariants() error { return m.CheckSweep(func(*objstore.Object) {}) }

// CheckSweep is CheckInvariants in one ascending pass over the store that
// hands every object, placed or not, to visit; it goes to the end whatever it
// finds. A placed object must be the next entry of its partition's list, so a
// list's cursor stops on an entry out of order or placed elsewhere.
func (m *Manager) CheckSweep(visit func(*objstore.Object)) error {
	parts := make([]struct{ used, next int }, len(m.parts))
	placed := 0
	var err error
	m.store.ForEach(func(o *objstore.Object) {
		visit(o)
		if err != nil || o.PartPlus1 == 0 {
			return
		}
		if err = m.checkPlacement(o.OID, int(o.PartPlus1)-1, int(o.Offset), int(o.Size)); err == nil {
			sp, objects := &parts[o.PartPlus1-1], m.parts[o.PartPlus1-1].objects
			sp.used += int(o.Size)
			if sp.next < len(objects) && objects[sp.next] == o.OID {
				sp.next++
			}
			placed++
		}
	})
	if err != nil {
		return err
	}
	listed, total := 0, 0
	for _, p := range m.parts {
		if got := parts[p.id].used; got != p.used {
			return fmt.Errorf("storage: partition %d used=%d but placements sum to %d", p.id, p.used, got)
		}
		if n := parts[p.id].next; n < len(p.objects) {
			if oid := p.objects[n]; n > 0 && p.objects[n-1] >= oid {
				return fmt.Errorf("storage: partition %d lists %v out of order", p.id, oid)
			}
			pl, _ := m.PlacementOf(p.objects[n])
			return fmt.Errorf("storage: partition %d lists %v but placement says %+v", p.id, p.objects[n], pl)
		}
		if p.cursor < 0 || p.cursor > m.cfg.PartitionBytes() {
			return fmt.Errorf("storage: partition %d cursor %d out of range", p.id, p.cursor)
		}
		listed += len(p.objects)
		total += p.used
	}
	// Every list entry matched a placement: equal counts leave none unlisted.
	if listed != placed {
		return fmt.Errorf("storage: %d placements but the partitions list %d objects", placed, listed)
	}
	if total != m.occupied {
		return fmt.Errorf("storage: occupied total %d but partitions sum to %d", m.occupied, total)
	}
	return nil
}

// checkPlacement validates a placement in partition part at byte offset off,
// size bytes long, against the geometry. Placement derives the page.
func (m *Manager) checkPlacement(oid objstore.OID, part, off, size int) error {
	switch {
	case part < 0 || part >= len(m.parts):
		return fmt.Errorf("storage: %v placed in unknown partition %d", oid, part)
	case size <= 0 || off < 0 || off > m.cfg.PartitionBytes()-size:
		return fmt.Errorf("storage: %v placement out of range: %+v", oid, Placement{PartitionID(part), off / m.cfg.PageSize, off, size})
	case off%m.cfg.PageSize+size > m.cfg.PageSize:
		return fmt.Errorf("storage: %v spans a page boundary: %+v", oid, Placement{PartitionID(part), off / m.cfg.PageSize, off, size})
	}
	return nil
}
