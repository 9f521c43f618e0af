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
	// The placement table stores partition offsets in 32 bits.
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

// IOStats counts page reads and writes by attribution class.
type IOStats struct {
	AppReads  uint64
	AppWrites uint64
	GCReads   uint64
	GCWrites  uint64
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

// FaultInjector is consulted at the entry of every physical operation the
// Manager performs, before any state changes. Returning a non-nil error
// aborts the operation; because nothing has mutated yet, the caller may
// safely retry the same operation. Implementations decide transience (see
// package fault); the Manager only propagates.
type FaultInjector interface {
	// BeforeOp is called with the operation's dominant direction: write for
	// allocation, compaction, flushes, and dirtying touches; read otherwise.
	BeforeOp(write bool) error
}

// partition is the manager's internal per-partition state.
type partition struct {
	id      PartitionID
	cursor  int            // bump-allocation offset in bytes; only compaction lowers it
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

// slot is a Placement as the table stores it, in 16 bytes against
// Placement's 32: every slot of a resident table chunk costs its width
// whether or not an object occupies it. The page is offset / PageSize.
type slot struct {
	part   int32
	offset int32
	size   int32 // positive for every placed object; the zero slot is "unplaced"
	moved  int32 // set only inside Compact, on the objects that survive it: the new offset, plus one
}

// Manager owns the partitions, the object placement table, and the buffer
// pool. It is the single point through which the simulator performs
// physical operations, so all I/O accounting happens here.
type Manager struct {
	cfg      Config
	parts    []*partition
	place    objstore.Table[slot]
	occupied int // sum of every partition's used bytes
	buf      *BufferPool
	stats    IOStats
	class    IOClass

	allocPart PartitionID // current allocation target

	// fault, when non-nil, may inject an error at the entry of each physical
	// operation (chaos testing; see package fault).
	fault FaultInjector
}

// NewManager returns a Manager with no partitions allocated yet.
func NewManager(cfg Config) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	buf, err := NewBufferPool(cfg.BufferPages)
	if err != nil {
		return nil, err
	}
	return &Manager{cfg: cfg, buf: buf}, nil
}

// SetFaultInjector installs (or, with nil, removes) a fault injector. The
// injector is consulted before each physical operation mutates any state.
func (m *Manager) SetFaultInjector(f FaultInjector) { m.fault = f }

// beforeOp consults the fault injector, if any.
func (m *Manager) beforeOp(write bool) error {
	if m.fault == nil {
		return nil
	}
	return m.fault.BeforeOp(write)
}

// Config returns the geometry.
func (m *Manager) Config() Config { return m.cfg }

// Stats returns a copy of the I/O counters.
func (m *Manager) Stats() IOStats { return m.stats }

// SetIOClass switches I/O attribution and returns the previous class.
func (m *Manager) SetIOClass(c IOClass) IOClass {
	prev := m.class
	m.class = c
	return prev
}

// IOClass returns the current attribution class.
func (m *Manager) IOClass() IOClass { return m.class }

// NumPartitions returns the number of allocated partitions.
func (m *Manager) NumPartitions() int { return len(m.parts) }

// OccupiedBytes returns the total bytes of objects placed across all
// partitions (live + garbage). This is the SAGA notion of database size.
func (m *Manager) OccupiedBytes() int { return m.occupied }

// PartitionUsedBytes returns the occupied bytes of one partition.
func (m *Manager) PartitionUsedBytes(id PartitionID) int {
	if int(id) < 0 || int(id) >= len(m.parts) {
		return 0
	}
	return m.parts[id].used
}

// PartitionFreeBytes returns the bytes still allocatable in a partition
// (capacity minus the bump cursor; holes from garbage are not reusable
// until the partition is compacted).
func (m *Manager) PartitionFreeBytes(id PartitionID) int {
	if int(id) < 0 || int(id) >= len(m.parts) {
		return 0
	}
	return m.cfg.PartitionBytes() - m.parts[id].cursor
}

// PartitionOf returns the partition holding an object. The second result is
// false if the object has no placement.
func (m *Manager) PartitionOf(oid objstore.OID) (PartitionID, bool) {
	s := m.place.Get(oid)
	return PartitionID(s.part), s.size != 0
}

// PlacementOf returns the full placement of an object.
func (m *Manager) PlacementOf(oid objstore.OID) (Placement, bool) {
	s := m.place.Get(oid)
	return m.placement(s), s.size != 0
}

func (m *Manager) placement(s slot) Placement {
	return Placement{
		Part:   PartitionID(s.part),
		Page:   int(s.offset) / m.cfg.PageSize,
		Offset: int(s.offset),
		Size:   int(s.size),
	}
}

// AppendObjectsIn appends the OIDs placed in a partition to dst, in ascending
// order for deterministic iteration, and returns the extended slice.
func (m *Manager) AppendObjectsIn(dst []objstore.OID, id PartitionID) []objstore.OID {
	if int(id) < 0 || int(id) >= len(m.parts) {
		return dst
	}
	return append(dst, m.parts[id].objects...)
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
	res := m.buf.pin(pg, dirty, fresh, m.class == IOGC)
	if res.ReadFault {
		m.charge(true)
	}
	if res.WroteBack {
		m.charge(false)
	}
}

// newPartition appends an empty partition.
func (m *Manager) newPartition() *partition {
	//lint:allow hotpath the partition is the product, retained by the manager for the database's life
	p := &partition{id: PartitionID(len(m.parts))}
	m.parts = append(m.parts, p)
	return p
}

// fits reports whether an object of the given size can be bump-allocated in
// partition p, accounting for the page-boundary skip (objects never span
// pages).
func (m *Manager) fits(p *partition, size int) bool {
	off := p.cursor
	if rem := m.cfg.PageSize - off%m.cfg.PageSize; size > rem {
		off += rem // skip to next page boundary
	}
	return off+size <= m.cfg.PartitionBytes()
}

// Allocate places a new object. Objects larger than a page are rejected;
// workload generators must split them (the OO7 manual is stored as a chain
// of page-sized segments). Lack of space grows the database by one
// partition; it never triggers collection.
func (m *Manager) Allocate(oid objstore.OID, size int) (Placement, error) {
	if size <= 0 {
		return Placement{}, fmt.Errorf("storage: allocate %v with size %d", oid, size)
	}
	if size > m.cfg.PageSize {
		return Placement{}, fmt.Errorf("storage: object %v size %d exceeds page size %d",
			oid, size, m.cfg.PageSize)
	}
	if m.place.Get(oid).size != 0 {
		return Placement{}, fmt.Errorf("storage: object %v already placed", oid)
	}
	if err := m.beforeOp(true); err != nil {
		return Placement{}, fmt.Errorf("storage: allocate %v: %w", oid, err)
	}

	var target *partition
	if len(m.parts) > 0 {
		if p := m.parts[m.allocPart]; m.fits(p, size) {
			target = p
		}
	}
	if target == nil {
		for _, p := range m.parts {
			if m.fits(p, size) {
				target = p
				break
			}
		}
	}
	if target == nil {
		target = m.newPartition()
	}
	m.allocPart = target.id

	off := target.cursor
	if rem := m.cfg.PageSize - off%m.cfg.PageSize; size > rem {
		off += rem
	}
	pl := Placement{
		Part:   target.id,
		Page:   off / m.cfg.PageSize,
		Offset: off,
		Size:   size,
	}
	fresh := off%m.cfg.PageSize == 0 // first object on the page: no disk image yet
	target.cursor = off + size
	target.used += size
	m.occupied += size
	target.add(oid)
	m.place.Set(oid, slot{part: int32(pl.Part), offset: int32(off), size: int32(size)})

	m.pin(PageID{pl.Part, pl.Page}, true, fresh)
	return pl, nil
}

// Touch simulates an access to an object: its page is faulted in if absent
// and marked dirty if write is true.
func (m *Manager) Touch(oid objstore.OID, write bool) error {
	s := m.place.Get(oid)
	if s.size == 0 {
		return fmt.Errorf("storage: touch of unplaced object %v", oid)
	}
	if err := m.beforeOp(write); err != nil {
		return fmt.Errorf("storage: touch %v: %w", oid, err)
	}
	m.pin(PageID{PartitionID(s.part), int(s.offset) / m.cfg.PageSize}, write, false)
	return nil
}

// ReadPartition faults in every used page of a partition, as the collector
// does when scanning. Pages already buffered cost nothing. An injected fault
// aborts the scan before any page is pinned, so the call is retryable.
func (m *Manager) ReadPartition(id PartitionID) error {
	if int(id) < 0 || int(id) >= len(m.parts) {
		return fmt.Errorf("storage: read of unknown partition %d", id)
	}
	if err := m.beforeOp(false); err != nil {
		return fmt.Errorf("storage: scan partition %d: %w", id, err)
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
// supplies Cheney copy order). Every object in live must currently be
// placed in the partition. Objects placed in the partition but absent from
// live are reclaimed and lose their placement.
//
// I/O: the caller is expected to have scanned the partition already (see
// ReadPartition); Compact marks the surviving pages dirty and drops stale
// pages beyond the new live region from the buffer without write-back.
func (m *Manager) Compact(id PartitionID, live []objstore.OID) (CompactResult, error) {
	if int(id) < 0 || int(id) >= len(m.parts) {
		return CompactResult{}, fmt.Errorf("storage: compact of unknown partition %d", id)
	}
	if err := m.beforeOp(true); err != nil {
		return CompactResult{}, fmt.Errorf("storage: compact partition %d: %w", id, err)
	}
	p := m.parts[id]
	// First pass, over the survivors in copy order for reference locality.
	// Copy order can pad page boundaries differently than the original
	// layout and — rarely, in a nearly full partition — overflow it; in that
	// case fall back to packing in original-offset order, which can only
	// shrink every offset and therefore always fits.
	end, fits, err := m.layout(id, live)
	if err != nil {
		return CompactResult{}, err
	}
	if !fits {
		m.unflag(live)
		order := append([]objstore.OID(nil), live...)
		slices.SortFunc(order, func(a, b objstore.OID) int {
			return int(m.place.Get(a).offset) - int(m.place.Get(b).offset)
		})
		if end, fits, _ = m.layout(id, order); !fits {
			m.unflag(live)
			return CompactResult{}, fmt.Errorf("storage: compaction of partition %d overflowed its %d bytes",
				id, m.cfg.PartitionBytes())
		}
	}

	// Second pass, over the members in ascending order (the survivors keep
	// theirs): reclaim every one without the flag, move the others.
	var res CompactResult
	oldPages := p.usedPages(m.cfg.PageSize)
	kept := p.objects[:0]
	for _, oid := range p.objects {
		s := m.place.Get(oid)
		if s.moved == 0 {
			res.ReclaimedBytes += int(s.size)
			res.ReclaimedObjects++
			m.place.Set(oid, slot{})
			continue
		}
		kept = append(kept, oid)
		m.place.Set(oid, slot{part: s.part, offset: s.moved - 1, size: s.size})
	}
	p.objects = kept
	p.used -= res.ReclaimedBytes
	m.occupied -= res.ReclaimedBytes
	p.cursor = end

	res.LivePages = p.usedPages(m.cfg.PageSize)
	// Surviving pages now hold the compacted image: dirty them. They are
	// fresh in the sense that their old disk image is obsolete, so a buffer
	// miss must not charge a read.
	for i := 0; i < res.LivePages; i++ {
		m.pin(PageID{id, i}, true, true)
	}
	// Pages beyond the live region are free space; drop any buffered copies
	// without write-back.
	for i := res.LivePages; i < oldPages; i++ {
		m.buf.Drop(PageID{id, i})
	}
	return res, nil
}

// layout is Compact's pass over the survivors: it checks that each object
// of order is placed in partition id and not yet flagged, and flags it with
// the offset it gets when the objects are packed in that order. Objects never
// span pages; the page end is carried along, so no offset is divided. It
// returns the end of the packed region and whether that lies inside the
// partition (when it does not, every object is flagged but the offsets mean
// nothing). On an object that fails the check it leaves none flagged: a
// rejected compaction changes nothing.
func (m *Manager) layout(id PartitionID, order []objstore.OID) (int, bool, error) {
	cursor, pageEnd, fits := 0, m.cfg.PageSize, true
	for i, oid := range order {
		s := m.place.Get(oid)
		if s.size == 0 || PartitionID(s.part) != id || s.moved != 0 {
			m.unflag(order[:i])
			if s.moved != 0 {
				return 0, false, fmt.Errorf("storage: duplicate live object %v", oid)
			}
			return 0, false, fmt.Errorf("storage: live object %v not placed in partition %d", oid, id)
		}
		if cursor+int(s.size) > pageEnd {
			if pageEnd == m.cfg.PartitionBytes() {
				// Out of partition. The caller re-packs; go on checking
				// from offset zero so the flags stay within 32 bits.
				fits, pageEnd = false, 0
			}
			cursor, pageEnd = pageEnd, pageEnd+m.cfg.PageSize
		}
		s.moved = int32(cursor) + 1
		m.place.Set(oid, s)
		cursor += int(s.size)
	}
	return cursor, fits, nil
}

// unflag clears the flags layout set.
func (m *Manager) unflag(oids []objstore.OID) {
	for _, oid := range oids {
		s := m.place.Get(oid)
		s.moved = 0
		m.place.Set(oid, s)
	}
}

// FlushGCDirty writes back every page dirtied under the IOGC class that is
// still buffered and dirty, charging the writes to the collector. The
// collector calls this at the end of a collection so its write cost is
// attributed to it rather than to later application evictions.
func (m *Manager) FlushGCDirty() (int, error) {
	if err := m.beforeOp(true); err != nil {
		return 0, fmt.Errorf("storage: flush collector pages: %w", err)
	}
	n := m.buf.cleanGC()
	m.stats.GCWrites += uint64(n)
	return n, nil
}

// FlushAll writes back every dirty buffered page, charging the current I/O
// class. Used at end of simulation to account for outstanding writes.
func (m *Manager) FlushAll() (int, error) {
	if err := m.beforeOp(true); err != nil {
		return 0, fmt.Errorf("storage: flush all: %w", err)
	}
	n := 0
	for _, pg := range m.buf.DirtyPages() {
		if m.buf.Clean(pg) {
			m.charge(false)
			n++
		}
	}
	return n, nil
}

// BufferContents exposes the buffered page set for tests and diagnostics.
func (m *Manager) BufferContents() []PageID { return m.buf.Pages() }

// CheckInvariants validates internal consistency; used by tests and the
// simulator's self-check mode. It verifies that placements and partition
// member lists agree, that used byte counts match, and that the stored
// database total is the sum of its parts.
func (m *Manager) CheckInvariants() error {
	//lint:allow hotpath validation sweep: one count array per call
	perPart := make([]int, len(m.parts))
	var err error
	m.place.ForEach(func(oid objstore.OID, s slot) {
		if err != nil {
			return
		}
		if s.moved != 0 {
			err = fmt.Errorf("storage: %v still carries a compaction flag", oid)
			return
		}
		if err = m.checkPlacement(oid, m.placement(s)); err == nil {
			perPart[s.part] += int(s.size)
		}
	})
	if err != nil {
		return err
	}
	listed, total := 0, 0
	for _, p := range m.parts {
		if got := perPart[p.id]; got != p.used {
			return fmt.Errorf("storage: partition %d used=%d but placements sum to %d", p.id, p.used, got)
		}
		for i, oid := range p.objects {
			if i > 0 && p.objects[i-1] >= oid {
				return fmt.Errorf("storage: partition %d lists %v out of order", p.id, oid)
			}
			if pl, ok := m.PlacementOf(oid); !ok || pl.Part != p.id {
				return fmt.Errorf("storage: partition %d lists %v but placement says %+v", p.id, oid, pl)
			}
		}
		if p.cursor < 0 || p.cursor > m.cfg.PartitionBytes() {
			return fmt.Errorf("storage: partition %d cursor %d out of range", p.id, p.cursor)
		}
		listed += len(p.objects)
		total += p.used
	}
	// Every listed object is placed where it is listed and no list repeats
	// one, so equal counts mean no placement is missing from its list.
	if listed != m.place.Len() {
		return fmt.Errorf("storage: %d placements but the partitions list %d objects", m.place.Len(), listed)
	}
	if total != m.occupied {
		return fmt.Errorf("storage: occupied total %d but partitions sum to %d", m.occupied, total)
	}
	return nil
}

// checkPlacement validates one placement against the geometry.
func (m *Manager) checkPlacement(oid objstore.OID, pl Placement) error {
	switch {
	case int(pl.Part) < 0 || int(pl.Part) >= len(m.parts):
		return fmt.Errorf("storage: %v placed in unknown partition %d", oid, pl.Part)
	case pl.Size <= 0 || pl.Offset < 0 || pl.Offset > m.cfg.PartitionBytes()-pl.Size:
		return fmt.Errorf("storage: %v placement out of range: %+v", oid, pl)
	case pl.Offset/m.cfg.PageSize != pl.Page:
		return fmt.Errorf("storage: %v page %d disagrees with offset %d", oid, pl.Page, pl.Offset)
	case pl.Offset%m.cfg.PageSize+pl.Size > m.cfg.PageSize:
		return fmt.Errorf("storage: %v spans a page boundary: %+v", oid, pl)
	}
	return nil
}
